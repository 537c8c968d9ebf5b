"""Test-only helpers on grids and forms: the whole-grid slice stencil (the
oracle of the gathered one) and its Wirtinger derivatives, an interior mask,
band values on the whole grid, the dense support and gradient (the oracles of
support_values and form_gradient, whose dz is the diagonal d alpha_j / dz_j), a full-grid weighted pairing, dbar of a scalar
grid field, a form moved by a translation, the per-component closures that
forms were built from (the oracles of their evaluators), a support check, the
point-by-point support test (the oracle of the separable one), the two sides of
the metric energy identity behind alpha_from_f, the shifted trapezoid weights of a weight, the
orthogonality of a Bergman residual, the projection from the whole basis at once
(the oracle of the blocked one), and the
one-tuple solves (the oracles of the hormander_ratio and coarse_rhs_bound
sweeps)."""

import math
import sys

import numpy as np

from pshlab.bochner import (
    FD_STENCIL_WIDTH, FormField01, FormGradient, MappedValues, bump_profile, dbar_01, dbar_star,
    form_gradient, weight_gradient,
)
from pshlab.dbar1d import (
    SolveResult, _centered_powers, cauchy_transform, dbar_residual, weighted_bergman_projection,
)
from pshlab.extension import _monomial_values, monomial_exponents
from pshlab.fields import Scaled, levi_form, node_weights
from pshlab.geometry import DomainBox, as_point, as_points, weighted_total
from pshlab.witness import (
    CoarseChainReport, _annulus_grid, _psi_delta_norm_sq, ball_infimum, build_alpha_eps,
    build_psi_delta, cutoff, cutoff_deriv,
)


def slice_partial(grid, values, axis):
    """4th-order central difference along a real axis over the whole grid (flat
    in, flat out), by slices; the outermost two node layers along the axis are 0."""
    v = np.asarray(values).reshape(grid.shape)
    h = grid.spacing[axis]
    w = FD_STENCIL_WIDTH

    def at(k):
        # the index v[i + k] over the interior nodes i along the axis
        idx = [slice(None)] * v.ndim
        idx[axis] = slice(w + k, v.shape[axis] - w + k)
        return tuple(idx)

    d = np.zeros(v.shape, dtype=np.result_type(v, 1.0))
    d[at(0)] = (-v[at(2)] + 8.0 * v[at(1)] - 8.0 * v[at(-1)] + v[at(-2)]) / (12.0 * h)
    return d.ravel()


def slice_d_dz(grid, values, j):
    """Wirtinger d/dz_j = (d/dx_j - i d/dy_j)/2 over the whole grid, by slices."""
    return 0.5 * (slice_partial(grid, values, 2 * j) - 1j * slice_partial(grid, values, 2 * j + 1))


def slice_d_dzbar(grid, values, j):
    """Wirtinger d/dzbar_j = (d/dx_j + i d/dy_j)/2 over the whole grid, by slices."""
    return 0.5 * (slice_partial(grid, values, 2 * j) + 1j * slice_partial(grid, values, 2 * j + 1))


def slice_dbar_01(grid, av):
    """The (0,2)-coefficients of (n, m) form values over the whole grid, by slices."""
    n = grid.n
    rows = [
        slice_d_dzbar(grid, av[k], j) - slice_d_dzbar(grid, av[j], k)
        for j in range(n) for k in range(j + 1, n)
    ]
    return np.array(rows, dtype=complex).reshape(len(rows), grid.weights.size)


def interior_mask(grid, margin_cells=FD_STENCIL_WIDTH):
    """Flat boolean mask selecting nodes at least margin_cells from every edge."""
    mask = np.ones(grid.shape, dtype=bool)
    for ax_i in range(len(grid.shape)):
        idx = [slice(None)] * len(grid.shape)
        idx[ax_i] = slice(0, margin_cells)
        mask[tuple(idx)] = False
        idx[ax_i] = slice(grid.shape[ax_i] - margin_cells, None)
        mask[tuple(idx)] = False
    return mask.ravel()


def on_grid(grid, band, values):
    """Values on a band of flat node indices (last axis), zero-filled to the whole grid."""
    out = np.zeros(values.shape[:-1] + (grid.weights.size,), dtype=values.dtype)
    out[..., band] = values
    return out


def values_of(obj, grid):
    """A form evaluated at every node of the grid, or node values as a complex array."""
    if isinstance(obj, FormField01):
        return obj.evaluate(grid.points)
    return np.asarray(obj, dtype=complex)


def nonzero_nodes(values):
    """The dense reference of support_values: the sorted flat indices of the nodes
    where some component of (n, m) node values is nonzero, by np.any over the
    whole grid, and the (n, k) values there."""
    av = np.asarray(values, dtype=complex)
    idx = np.flatnonzero(np.any(av != 0.0, axis=0))
    return idx, av[:, idx]


def gradient_of(obj, grid):
    """form_gradient of a form or its (n, m) node values, given at their nonzero_nodes,
    on its whole stencil band: one block."""
    idx, values = nonzero_nodes(values_of(obj, grid))
    band = grid.stencil_band(idx)
    return form_gradient(MappedValues(idx, values, grid), band, grid)


def dense_form_gradient(values, grid):
    """The dense reference of form_gradient, from (n, m) node values: the nonzero
    nodes by np.any, the band by rolling that mask over the whole grid, and the
    derivatives by the whole-grid slice stencils, read at the band nodes."""
    av = np.asarray(values, dtype=complex)
    support = np.any(av != 0.0, axis=0).reshape(grid.shape)
    mask = support.copy()
    for axis in range(support.ndim):
        for k in range(1, FD_STENCIL_WIDTH + 1):
            mask |= np.roll(support, k, axis) | np.roll(support, -k, axis)
    band = np.flatnonzero(mask)
    dz = [slice_d_dz(grid, a, j)[band] for j, a in enumerate(av)]
    dzbar = [[slice_d_dzbar(grid, a, k)[band] for k in range(grid.n)] for a in av]
    return FormGradient(av[:, band], band, np.array(dz), np.array(dzbar))


def grid_dbar_01(alpha, grid):
    """dbar_01 of a form or its node values, on the whole grid."""
    g = gradient_of(alpha, grid)
    return on_grid(grid, g.band, dbar_01(g, grid))


def grid_dbar_star(alpha, phi, grid):
    """dbar_star of a form or its node values, on the whole grid."""
    g = gradient_of(alpha, grid)
    return on_grid(grid, g.band, dbar_star(g, weight_gradient_on(phi, g, grid)))


def on_support(g):
    """(k,) boolean: the nodes of a form's gradient g where some component is nonzero."""
    return np.any(g.values != 0.0, axis=0)


def weight_gradient_on(phi, g, grid):
    """weight_gradient of phi on the band of a whole-band gradient g, nonzero only where
    its form is."""
    return weight_gradient(phi, g.band[on_support(g)], g.band, grid)


def weighted_pairing(a, b, weight, grid):
    """Trapezoid approximation of int <a, b> e^{-weight} over the grid box.

    Forms pair componentwise (sum_j a_j conj(b_j)); scalars pair as a conj(b).
    Arguments may be FormField01 instances or node-value arrays.
    """
    av = values_of(a, grid)
    bv = values_of(b, grid)
    if av.ndim != bv.ndim:
        raise ValueError("cannot pair a form with a scalar")
    wq, shift = node_weights(-weight(grid.points), grid.weights)
    integrand = np.sum(av * np.conj(bv), axis=0) if av.ndim == 2 else av * np.conj(bv)
    return unshifted(complex(np.dot(integrand, wq)), shift)


def unshifted(total, shift: float):
    """total * e^shift, written out here as the reference of fields.Scaled.value: by
    one factor where e^shift is a normal double, else by two half factors; a product
    past the double range is infinite."""
    try:
        factor = math.exp(shift)
    except OverflowError:
        factor = math.inf
    if sys.float_info.min <= factor < math.inf:
        return type(total)(total * factor)
    with np.errstate(over="ignore"):
        half = np.exp(np.float64(shift) / 2.0)
        return type(total)(total * half * half)


def stacked(components, pts):
    """Per-component coefficient closures evaluated and stacked to (n, m), as a form
    was evaluated when it held one closure per component."""
    z = as_points(pts, len(components))
    return np.stack([np.asarray(c(z), dtype=complex) for c in components])


def translated_form(alpha: FormField01, a) -> FormField01:
    """z -> alpha(z - a), supported on the translated support."""
    support = DomainBox(alpha.support.kind, alpha.support.center + a, alpha.support.extents)
    return FormField01(alpha.name, lambda z: alpha.coefficients(z - a), support)


def bump_const_components(xi, radius):
    """The per-component closures of bump_const_form (the oracle of its evaluator)."""
    xi = as_point(xi)
    value, _ = bump_profile(radius)
    return tuple((lambda z, coef=xi[j]: coef * value(z)) for j in range(xi.size))


def bump_zbar_components(n, radius):
    """The per-component closures of bump_zbar_form."""
    value, _ = bump_profile(radius)
    if n == 1:
        return (lambda z: value(z) * (1.0 + np.conj(z[:, 0])),)
    return (
        (lambda z: value(z).astype(complex),)
        + (lambda z: np.zeros(z.shape[0], dtype=complex),) * (n - 2)
        + (lambda z: value(z) * np.conj(z[:, n - 1]),)
    )


def witness_form_components(z0, xi, r):
    """The per-component closures of build_witness_form."""
    z0, xi = as_point(z0), as_point(xi)
    rr = r * r

    def pair(z):
        return (z - z0) @ np.conj(xi)

    def component(j):
        def comp(z):
            d = z - z0
            t = np.sum(d.real * d.real + d.imag * d.imag, axis=-1) / rr
            return xi[j] * cutoff(t) + np.conj(pair(z)) * cutoff_deriv(t) * d[:, j] / rr

        return comp

    return tuple(component(j) for j in range(z0.size))


def alpha_eps_components(w, eps):
    """The per-component closures of build_alpha_eps."""
    w = as_point(w)
    ee = eps * eps

    def component(j):
        def comp(z):
            d = z - w
            t = np.sum(d.real * d.real + d.imag * d.imag, axis=-1) / ee
            return cutoff_deriv(t) * d[:, j] / ee

        return comp

    return tuple(component(j) for j in range(w.size))


def dbar_bump_components():
    """The one closure of dbar1d.dbar_bump."""
    _, dzbar = bump_profile(1.0)
    return (lambda z: dzbar(z, 0),)


def scalar_dbar(values, grid):
    """dbar of a scalar grid field: components (d v / dzbar_j)_j as (n, m)."""
    return np.stack([slice_d_dzbar(grid, values, j) for j in range(grid.n)])


def check_support(form, pts, tol=1e-12):
    """The form's coefficients vanish outside its support region at the given nodes."""
    z = as_points(pts, form.n)
    outside = ~form.support.contains(z)
    if not np.any(outside):
        return True
    vals = form.evaluate(z[outside])
    return bool(np.max(np.abs(vals)) <= tol)


def contains_support_nodes(grid, support):
    """GridDiscretization.support_nodes by points: every node of the grown
    support's bounding box as a point of C^n, tested by DomainBox.contains."""
    grown = DomainBox(support.kind, support.center, support.extents * (1.0 + 1e-9))
    ranges = [
        np.flatnonzero((ax >= lo) & (ax <= hi))
        for ax, (lo, hi) in zip(grid.axes, grown.real_bounds())
    ]
    idx = np.ravel_multi_index(np.ix_(*ranges), grid.shape).ravel()
    return idx[grown.contains(grid.points_at(idx))]


def metric_quadratic(metric, vec):
    """sum_{j,k} B_jk v_j conj(v_k) (real for Hermitian B)."""
    v = np.asarray(vec, dtype=complex)
    return float(np.real(np.dot(v, np.asarray(metric) @ np.conj(v))))


def form_norm_sq(metric, f_coeffs):
    """|f|^2_B = sum_{j,k} (B^{-1})_jk f_j conj(f_k) via a linear solve."""
    f = np.asarray(f_coeffs, dtype=complex)
    return float(np.real(np.dot(f, np.linalg.solve(np.asarray(metric), np.conj(f)))))


def shifted_weights(eta_values, grid):
    """Trapezoid weights times e^{-eta - shift} from the weight's node values, and shift."""
    return node_weights(-np.asarray(eta_values, dtype=float), grid.weights)


def projection_orthogonality(u_values, h_values, eta_values, degree: int, grid) -> float:
    """Max relative pairing of (u - h) against the basis monomials."""
    pts = grid.points
    w, _ = shifted_weights(eta_values, grid)
    mono = _monomial_values(pts, monomial_exponents(1, degree))
    res = np.asarray(u_values) - np.asarray(h_values)
    pair = mono.conj().T @ (w * res)
    res_norm = math.sqrt(max(float(np.real(np.dot(np.conj(res), w * res))), 1e-300))
    mono_norms = np.sqrt(np.maximum(np.real(np.einsum("ma,m,ma->a", np.conj(mono), w, mono)), 1e-300))
    return float(np.max(np.abs(pair) / (res_norm * mono_norms)))


def bergman_project(u_values, eta_values, degree: int, grid):
    """weighted_bergman_projection from the weight eta at every node and a degree."""
    w, _ = shifted_weights(eta_values, grid)
    mono = _monomial_values(grid.points, monomial_exponents(1, degree))
    return weighted_bergman_projection(u_values, w, lambda nodes: mono[nodes].T)


def whole_basis_projection(u_values, w, mono):
    """The weighted projection from the whole (m, K) basis at once: the Gram normal
    equations formed by one product over every node (the oracle of the blocked one)."""
    u = np.asarray(u_values, dtype=complex)
    mc = mono.conj()
    rhs = mc.T @ (w * u)
    mc *= w[:, None]
    coeffs = np.linalg.solve(mc.T @ mono, rhs)
    residual = u - mono @ coeffs
    return residual, coeffs, float(np.real(np.dot(np.conj(residual), w * residual)))


def hormander_ratio_one(phi, psi, f, degree: int, grid) -> SolveResult:
    """One (phi, psi) pair's solve and ratio, every input computed for it alone; the
    projection runs over the nodes where the pair's weight is nonzero."""
    if f.n != 1:
        raise ValueError("the constructive solve is one-dimensional")
    pts = grid.points
    fv = f.evaluate(pts)[0]
    u_part = cauchy_transform(fv, grid)
    residual = dbar_residual(u_part, fv, grid)

    wq, shift = shifted_weights(phi(pts) + psi(pts), grid)
    live = np.flatnonzero(wq)
    rows = _centered_powers(pts[live, 0], wq[live], degree)
    u_min = weighted_bergman_projection(u_part[live], wq[live], rows)[0]
    minimal_norm_sq = float(weighted_total((u_min.conj() * u_min).real, wq[live]))

    support = np.flatnonzero(np.abs(fv) > 0.0)
    psi_zz = np.real(levi_form(psi, pts[support])[:, 0, 0])
    if np.any(psi_zz < 1e-8):
        raise ValueError("psi is not strictly subharmonic on the support of f")
    comparison = float(weighted_total(np.abs(fv[support]) ** 2 / psi_zz, wq[support]))

    return SolveResult(residual, (Scaled(minimal_norm_sq, shift), Scaled(comparison, shift)))


# coarse_rhs_bound against coarse_rhs_bound_one, relative, at p = 2: the chain shifts its
# weights by the largest exponent with |alpha|^p inside it and forms the bound as
# e^{log C - p log eps}, where the oracle divides C by eps^p; 9.2e-16 at most was measured
CHAIN_REL = 1e-15


def coarse_rhs_bound_one(phi, m, p, w, eps, delta, log_c_m, grid_nodes=64) -> CoarseChainReport:
    """One (m, eps, delta) tuple's coarse chain report, every input computed for it alone and
    in doubles: |alpha|^p as a factor of the integrand and C / eps^p as the bound's total."""
    w = as_point(w)
    n = w.size
    alpha = build_alpha_eps(w, eps)
    psi = build_psi_delta(w, delta, n)

    grid = _annulus_grid(w, eps, grid_nodes)
    spacing = float(np.max(grid.spacing))
    if spacing > eps / 16.0 + 1e-15:
        raise ValueError(
            f"grid does not resolve the annulus: spacing {spacing:.3e} > eps/16"
        )
    idx = grid.support_nodes(alpha.support)
    pts = grid.points_at(idx)
    av = alpha.evaluate(pts)
    on_support = np.sum(np.abs(av) ** 2, axis=0) > 0.0
    # exclude the pole node if it happens to sit on the grid (delta = 0)
    at_pole = psi(pts) == -np.inf
    use = on_support & ~at_pole

    norm_sq = _psi_delta_norm_sq(av[:, use], pts[use], w, delta, n)
    wq, shift = node_weights(-(m * phi(pts[use]) + psi(pts[use])), grid.weights[idx[use]])
    rhs = Scaled(weighted_total(norm_sq ** (p / 2.0), wq), shift + log_c_m)

    inf_phi = ball_infimum(phi, w, eps)
    envelope = 2.0 ** (p + 2 * n) * math.pi ** n / math.factorial(n)
    bound = Scaled(envelope / eps**p, log_c_m - m * inf_phi)
    return CoarseChainReport(m, eps, delta, rhs, bound, inf_phi)
