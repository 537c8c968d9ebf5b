"""Weighted (0,1)-form calculus on tensor grids and the Bochner-type identity.

For a compactly supported smooth (0,1)-form alpha = sum_j alpha_j dzbar_j on a
C^2-weighted domain the energy identity

    int sum_{j,k} phi_{j kbar} alpha_j conj(alpha_k) e^{-phi}
      + int sum_{j,k} |d alpha_j / dzbar_k|^2 e^{-phi}
    = int |dbar alpha|^2 e^{-phi} + int |dbar*_phi alpha|^2 e^{-phi}

holds; this module evaluates all four integrals by independent code paths so
their agreement is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PoleInStencilError
from .fields import ScalarField, unshift, weight_exp
from .geometry import DomainBox, as_point, as_points

FD_STENCIL_WIDTH = 2  # nodes used on each side by the 4th-order stencil


@dataclass(frozen=True)
class FormField01:
    """A (0,1)-form as n coefficient evaluators with a support region."""

    name: str
    n: int
    components: tuple
    support: DomainBox
    smoothness: str = "C2"

    def evaluate(self, pts) -> np.ndarray:
        """Coefficient values as an (n, m) complex array."""
        z = as_points(pts, self.n)
        return np.stack([np.asarray(c(z), dtype=complex) for c in self.components])

    def check_support(self, pts, tol: float = 1e-12) -> bool:
        """Coefficients vanish outside the support region at the given nodes."""
        z = as_points(pts, self.n)
        outside = ~self.support.contains(z)
        if not np.any(outside):
            return True
        vals = self.evaluate(z[outside])
        return bool(np.max(np.abs(vals)) <= tol)


@dataclass(frozen=True)
class GridDiscretization:
    """Tensor-product trapezoid grid over a real box of R^{2n} = C^n."""

    bounds: np.ndarray  # (2n, 2) lo/hi per real axis
    nodes_per_axis: int
    axes: tuple = field(init=False)
    spacing: np.ndarray = field(init=False)
    points: np.ndarray = field(init=False)  # (m, n) complex
    weights: np.ndarray = field(init=False)  # (m,) trapezoid weights
    shape: tuple = field(init=False)

    def __post_init__(self):
        bounds = np.asarray(self.bounds, dtype=float)
        if bounds.ndim != 2 or bounds.shape[1] != 2 or bounds.shape[0] % 2 != 0:
            raise ValueError("bounds must be a (2n, 2) array")
        if self.nodes_per_axis < 2 * FD_STENCIL_WIDTH + 2:
            raise ValueError("grid too coarse for the interior FD stencil")
        object.__setattr__(self, "bounds", bounds)
        axes = tuple(np.linspace(lo, hi, self.nodes_per_axis) for lo, hi in bounds)
        object.__setattr__(self, "axes", axes)
        spacing = np.array([ax[1] - ax[0] for ax in axes])
        object.__setattr__(self, "spacing", spacing)
        shape = (self.nodes_per_axis,) * bounds.shape[0]
        object.__setattr__(self, "shape", shape)
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = np.stack([m.ravel() for m in mesh], axis=1)
        pts = flat[:, 0::2] + 1j * flat[:, 1::2]
        object.__setattr__(self, "points", pts)
        w = np.ones(shape)
        for ax_i in range(len(axes)):
            w1 = np.full(self.nodes_per_axis, spacing[ax_i])
            w1[0] *= 0.5
            w1[-1] *= 0.5
            sl = [None] * len(axes)
            sl[ax_i] = slice(None)
            w = w * w1[tuple(sl)]
        object.__setattr__(self, "weights", w.ravel())

    @property
    def n(self) -> int:
        return self.bounds.shape[0] // 2

    def partial(self, values: np.ndarray, axis: int) -> np.ndarray:
        """4th-order central difference along a real axis (flat in, flat out).

        The stencil needs two nodes on each side, so the outermost two node
        layers along the axis are set to zero.
        """
        v = np.asarray(values).reshape(self.shape)
        h = self.spacing[axis]
        w = FD_STENCIL_WIDTH

        def at(k):
            # the index v[i + k] over the interior nodes i along the axis
            idx = [slice(None)] * v.ndim
            idx[axis] = slice(w + k, v.shape[axis] - w + k)
            return tuple(idx)

        d = np.zeros(v.shape, dtype=np.result_type(v, 1.0))
        d[at(0)] = (-v[at(2)] + 8.0 * v[at(1)] - 8.0 * v[at(-1)] + v[at(-2)]) / (12.0 * h)
        return d.ravel()

    def d_dz(self, values: np.ndarray, j: int) -> np.ndarray:
        """Wirtinger d/dz_j = (d/dx_j - i d/dy_j)/2 on grid data."""
        return 0.5 * (self.partial(values, 2 * j) - 1j * self.partial(values, 2 * j + 1))

    def d_dzbar(self, values: np.ndarray, j: int) -> np.ndarray:
        """Wirtinger d/dzbar_j = (d/dx_j + i d/dy_j)/2 on grid data."""
        return 0.5 * (self.partial(values, 2 * j) + 1j * self.partial(values, 2 * j + 1))

    def interior_mask(self, margin_cells: int = FD_STENCIL_WIDTH) -> np.ndarray:
        """Flat boolean mask selecting nodes at least margin_cells from every edge."""
        mask = np.ones(self.shape, dtype=bool)
        for ax_i in range(len(self.shape)):
            idx = [slice(None)] * len(self.shape)
            idx[ax_i] = slice(0, margin_cells)
            mask[tuple(idx)] = False
            idx[ax_i] = slice(self.shape[ax_i] - margin_cells, None)
            mask[tuple(idx)] = False
        return mask.ravel()

    def check_support_margin(self, support: DomainBox, widths: int) -> None:
        """The grid must contain the support with >= widths FD stencil widths of margin."""
        sb = support.real_bounds()
        need = widths * FD_STENCIL_WIDTH * self.spacing
        lo_ok = np.all(sb[:, 0] - self.bounds[:, 0] >= need - 1e-12)
        hi_ok = np.all(self.bounds[:, 1] - sb[:, 1] >= need - 1e-12)
        if not (lo_ok and hi_ok):
            raise ValueError(
                f"grid does not contain the form's support with a {widths}-stencil margin"
            )


def make_grid(box: DomainBox, nodes_per_axis: int, margin: float = 0.0) -> GridDiscretization:
    bounds = box.real_bounds()
    bounds = np.stack([bounds[:, 0] - margin, bounds[:, 1] + margin], axis=1)
    return GridDiscretization(bounds, nodes_per_axis)


def weighted_pairing(
    a, b, weight: ScalarField, grid: GridDiscretization
):
    """Trapezoid approximation of int <a, b> e^{-weight} over the grid box.

    Forms pair componentwise (sum_j a_j conj(b_j)); scalars pair as a conj(b).
    Arguments may be FormField01 / ScalarField instances or node-value arrays.
    """
    av = _as_node_values(a, grid)
    bv = _as_node_values(b, grid)
    if av.ndim != bv.ndim:
        raise ValueError("cannot pair a form with a scalar")
    e, shift = weight_exp(-weight(grid.points))
    integrand = np.sum(av * np.conj(bv), axis=0) if av.ndim == 2 else av * np.conj(bv)
    return unshift(complex(np.dot(integrand, e * grid.weights)), shift)


def _as_node_values(obj, grid: GridDiscretization) -> np.ndarray:
    if isinstance(obj, FormField01):
        grid.check_support_margin(obj.support, 2)
        return obj.evaluate(grid.points)
    if isinstance(obj, ScalarField):
        return np.asarray(obj(grid.points), dtype=complex)
    arr = np.asarray(obj, dtype=complex)
    if arr.ndim not in (1, 2):
        raise ValueError("node values must be (m,) scalars or (n, m) form components")
    return arr


def dbar_01(alpha, grid: GridDiscretization) -> np.ndarray:
    """(0,2)-coefficients (d alpha_k / dzbar_j - d alpha_j / dzbar_k), j < k.

    Returns an (n(n-1)/2, m) array in lexicographic (j, k) order; the array is
    empty when n = 1 (there are no (0,2)-forms on C).
    """
    av = _as_node_values(alpha, grid)
    n = grid.n
    rows = []
    for j in range(n):
        for k in range(j + 1, n):
            rows.append(grid.d_dzbar(av[k], j) - grid.d_dzbar(av[j], k))
    if not rows:
        return np.zeros((0, av.shape[1]), dtype=complex)
    return np.stack(rows)


def dbar_star(alpha, phi: ScalarField, grid: GridDiscretization) -> np.ndarray:
    """Formal adjoint -sum_j (d alpha_j / dz_j - alpha_j dphi/dz_j), nodewise."""
    av = _as_node_values(alpha, grid)
    n = grid.n
    on_support = np.sum(np.abs(av) ** 2, axis=0) > 0.0
    if np.any(phi.is_pole(grid.points) & on_support):
        raise PoleInStencilError("pole in the support of the form")
    if phi.grad is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            gphi = np.asarray(phi.grad(grid.points), dtype=complex)
        if np.any(~np.isfinite(gphi[on_support])):
            raise PoleInStencilError("pole in the support of the form")
    else:
        pv = phi(grid.points)
        if np.any(~np.isfinite(pv[on_support])):
            raise PoleInStencilError("pole in the support of the form")
        gphi = np.stack([grid.d_dz(pv, j) for j in range(n)], axis=1)
    out = np.zeros(av.shape[1], dtype=complex)
    for j in range(n):
        out -= grid.d_dz(av[j], j) - av[j] * gphi[:, j]
    return out


def scalar_dbar(values: np.ndarray, grid: GridDiscretization) -> np.ndarray:
    """dbar of a scalar grid field: components (d v / dzbar_j)_j as (n, m)."""
    return np.stack([grid.d_dzbar(values, j) for j in range(grid.n)])


def levi_on_grid(phi: ScalarField, grid: GridDiscretization) -> np.ndarray:
    """(m, n, n) Levi forms at the nodes: the analytic Hessian as declared (no
    copy), or d/dzbar_k d/dz_j phi by the 4th-order stencil, symmetrised."""
    if phi.hess is not None:
        return np.asarray(phi.hess(grid.points), dtype=complex)
    n = grid.n
    pv = phi(grid.points)
    hess = np.empty((grid.points.shape[0], n, n), dtype=complex)
    for j in range(n):
        dj = grid.d_dz(pv, j)
        for k in range(n):
            hess[:, j, k] = grid.d_dzbar(dj, k)
    return 0.5 * (hess + hess.conj().swapaxes(-1, -2))


def gradient_energy(av: np.ndarray, grid: GridDiscretization) -> np.ndarray:
    """Nodewise full gradient energy sum_{j,k} |d alpha_j / dzbar_k|^2 of (n, m) values."""
    out = np.zeros(av.shape[1])
    for j in range(grid.n):
        for k in range(grid.n):
            out += np.abs(grid.d_dzbar(av[j], k)) ** 2
    return out


@dataclass(frozen=True)
class BochnerReport:
    """The energy identity; terms kept times e^{-log_scale}, rescaled on access."""

    residual: float
    scaled_terms: tuple  # curvature, gradient, dbar, adjoint
    log_scale: float

    def _unscaled(self, *terms) -> float:
        return unshift(sum(self.scaled_terms[i] for i in terms), self.log_scale)

    lhs = property(lambda self: self._unscaled(0, 1))
    rhs = property(lambda self: self._unscaled(2, 3))
    curvature_term = property(lambda self: self._unscaled(0))
    gradient_term = property(lambda self: self._unscaled(1))
    dbar_term = property(lambda self: self._unscaled(2))
    adjoint_term = property(lambda self: self._unscaled(3))


def bochner_residual(
    alpha: FormField01, phi: ScalarField, grid: GridDiscretization
) -> BochnerReport:
    """Evaluate both sides of the energy identity and their relative residual."""
    av = _as_node_values(alpha, grid)
    e, shift = weight_exp(-phi(grid.points))
    e = e * grid.weights

    # curvature energy: sum_{j,k} phi_{j kbar} alpha_j conj(alpha_k)
    quad = np.einsum("mjk,jm,km->m", levi_on_grid(phi, grid), av, np.conj(av))
    curvature = float(np.dot(np.real(quad), e))

    gradient = float(np.dot(gradient_energy(av, grid), e))

    # |dbar alpha|^2 over increasing pairs
    anti = dbar_01(av, grid)
    dbar_sq = np.sum(np.abs(anti) ** 2, axis=0) if anti.size else np.zeros(av.shape[1])
    dbar_term = float(np.dot(dbar_sq, e))

    # |dbar*_phi alpha|^2
    adj = dbar_star(av, phi, grid)
    adjoint = float(np.dot(np.abs(adj) ** 2, e))

    lhs = curvature + gradient
    rhs = dbar_term + adjoint
    residual = abs(lhs - rhs) / max(lhs, rhs, 1e-300)
    return BochnerReport(residual, (curvature, gradient, dbar_term, adjoint), shift)


# ---------------------------------------------------------------------------
# form corpus: compactly supported bumps with closed-form derivatives
# ---------------------------------------------------------------------------


def bump_profile(center, radius: float, n: int):
    """Radial bump b(z) = (1 - |z-c|^2/R^2)_+^4: C^3 at the support edge.

    Returns (value, dzbar) callables; dzbar_j b = -(4/R^2)(1-t)_+^3 (z_j-c_j).
    """
    c = as_point(center)
    rr = radius * radius

    def t_of(z):
        return np.sum(np.abs(z - c) ** 2, axis=-1) / rr

    def value(z):
        return np.maximum(1.0 - t_of(z), 0.0) ** 4

    def dzbar(z, j):
        cut = np.maximum(1.0 - t_of(z), 0.0) ** 3
        return -4.0 / rr * cut * (z[:, j] - c[j])

    return value, dzbar


def bump_const_form(xi, center=None, radius: float = 1.0) -> FormField01:
    """alpha = xi * b(z) with the radial quartic bump b."""
    xi = as_point(xi)
    n = xi.size
    c = np.zeros(n, dtype=complex) if center is None else as_point(center)
    value, _ = bump_profile(c, radius, n)
    comps = tuple(
        (lambda z, coef=xi[j]: coef * value(z)) for j in range(n)
    )
    support = DomainBox("ball", c, np.array([radius]))
    return FormField01("bump_const", n, comps, support)


def bump_zbar_form(n: int, center=None, radius: float = 1.0) -> FormField01:
    """alpha = b dzbar_1 + zbar_n b dzbar_n (n >= 2); b (1 + zbar) dzbar for n = 1."""
    c = np.zeros(n, dtype=complex) if center is None else as_point(center)
    value, _ = bump_profile(c, radius, n)
    if n == 1:
        comps = (lambda z: value(z) * (1.0 + np.conj(z[:, 0])),)
    else:
        comps = [lambda z: value(z).astype(complex)]
        comps += [
            (lambda z, j=j: np.zeros(z.shape[0], dtype=complex)) for j in range(1, n - 1)
        ]
        comps.append(lambda z: value(z) * np.conj(z[:, n - 1]))
        comps = tuple(comps)
    support = DomainBox("ball", c, np.array([radius]))
    return FormField01("bump_zbar2", n, comps, support)


def zero_field(n: int) -> ScalarField:
    return ScalarField(
        "zero", n,
        lambda z: np.zeros(z.shape[0]),
        grad=lambda z: np.zeros((z.shape[0], n), dtype=complex),
        hess=lambda z: np.zeros((z.shape[0], n, n), dtype=complex),
    )


def get_form(spec: str, n: int) -> FormField01:
    """Resolve a form id like "bump_const:[[1,0]]" or "bump_zbar2"."""
    import json

    base, _, raw = spec.partition(":")
    param = json.loads(raw) if raw else None
    if base == "bump_const":
        if param is None:
            xi = np.zeros(n, dtype=complex)
            xi[0] = 1.0
        else:
            from .fields import parse_point

            xi = parse_point(param, n)
        return bump_const_form(xi)
    if base == "bump_zbar2":
        return bump_zbar_form(n)
    if base == "dbar_nu":
        from .witness import build_witness_form, make_cutoff

        xi = np.zeros(n, dtype=complex)
        xi[0] = 1.0
        _, f = build_witness_form(np.zeros(n, dtype=complex), xi, 1.0, make_cutoff())
        return f
    raise ValueError(
        f"unknown form id {base!r}; known ids: bump_const, bump_zbar2, dbar_nu"
    )
