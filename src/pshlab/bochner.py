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
from functools import cached_property, reduce
from typing import Callable

import numpy as np

from .errors import PoleInStencilError
from .fields import Scaled, ScalarField, check_overflow, levi_form, weighted_sums, zero_omega
from .geometry import DomainBox, as_point, as_points, row_sum, unit_ball

FD_STENCIL_WIDTH = 2  # nodes used on each side by the 4th-order stencil
MIN_GRID_NODES = 2 * FD_STENCIL_WIDTH + 2  # the fewest nodes per axis that a grid takes
BAND_BLOCK = 8192  # band nodes whose gradients, points and Levi forms are held at once


@dataclass(frozen=True)
class FormField01:
    """A (0,1)-form: one evaluator of its n coefficients, and a support region in C^n."""

    name: str
    coefficients: Callable[[np.ndarray], np.ndarray]  # (m, n) points -> (n, m) values
    support: DomainBox

    n = property(lambda self: self.support.n)

    def evaluate(self, pts) -> np.ndarray:
        """Coefficient values as an (n, m) complex array."""
        return np.asarray(self.coefficients(as_points(pts, self.n)), dtype=complex)


@dataclass(frozen=True)
class GridDiscretization:
    """Tensor-product trapezoid grid over a real box of R^{2n} = C^n."""

    bounds: np.ndarray  # (2n, 2) lo/hi per real axis
    nodes_per_axis: int
    axes: tuple = field(init=False)
    spacing: np.ndarray = field(init=False)
    shape: tuple = field(init=False)

    def __post_init__(self):
        bounds = np.asarray(self.bounds, dtype=float)
        if bounds.ndim != 2 or bounds.shape[1] != 2 or bounds.shape[0] % 2 != 0:
            raise ValueError("bounds must be a (2n, 2) array")
        if self.nodes_per_axis < MIN_GRID_NODES:
            raise ValueError("grid too coarse for the interior FD stencil")
        object.__setattr__(self, "bounds", bounds)
        axes = tuple(np.linspace(lo, hi, self.nodes_per_axis) for lo, hi in bounds)
        object.__setattr__(self, "axes", axes)
        spacing = np.array([ax[1] - ax[0] for ax in axes])
        object.__setattr__(self, "spacing", spacing)
        shape = (self.nodes_per_axis,) * bounds.shape[0]
        object.__setattr__(self, "shape", shape)

    @property
    def n(self) -> int:
        return self.bounds.shape[0] // 2

    @property
    def size(self) -> int:
        """The number of nodes."""
        return self.nodes_per_axis ** len(self.shape)

    @cached_property
    def weights(self) -> np.ndarray:
        """(m,) trapezoid weights of every node, built on first use: the outer
        products of the 1-D trapezoid weights of each real axis, taken in axis order."""
        factors = []
        for h in self.spacing:
            w1 = np.full(self.nodes_per_axis, h)
            w1[[0, -1]] *= 0.5
            factors.append(w1)
        return reduce(np.multiply.outer, factors, np.ones(())).ravel()

    @property
    def cell_volume(self) -> np.float64:
        """The trapezoid weight of every node off the grid's edge, such as every band node
        (stencil_band): the product of the spacings in axis order, as in weights."""
        return reduce(np.multiply, self.spacing)

    @cached_property
    def points(self) -> np.ndarray:
        """(m, n) complex coordinates of every node, built on first use."""
        return self.points_at(np.arange(self.size))

    def points_at(self, idx) -> np.ndarray:
        """(k, n) complex coordinates of the nodes with flat indices idx."""
        sub = np.unravel_index(idx, self.shape)
        flat = np.stack([ax[i] for ax, i in zip(self.axes, sub)], axis=1)
        return flat[:, 0::2] + 1j * flat[:, 1::2]

    def support_nodes(self, support: DomainBox) -> np.ndarray:
        """Sorted flat indices of the nodes in a ball support (its radius grown by
        1e-9 relative), tested only inside its bounding box and separably, without
        building points: each coordinate's offsets z_j - c_j form one (x_j, y_j)
        block, and the blocks' squared moduli sum by outer additions.  This repeats
        DomainBox.contains' arithmetic on the same values, so a node is in exactly
        when contains says so.  A support that is not a ball raises ValueError."""
        if support.kind != "ball":
            raise ValueError(f"a form's support must be a ball, not a {support.kind}")
        grown = DomainBox("ball", support.center, support.extents * (1.0 + 1e-9))
        ranges = [
            np.flatnonzero((ax >= lo) & (ax <= hi))
            for ax, (lo, hi) in zip(self.axes, grown.real_bounds())
        ]
        coords = [ax[r] for ax, r in zip(self.axes, ranges)]  # (x1, y1, x2, y2, ...) in range
        d = [x[:, None] + 1j * y - c for x, y, c in zip(coords[0::2], coords[1::2], grown.center)]
        # |z - c|^2 as np.linalg.norm forms it, (d conj(d)).real summed over j in
        # order: dx * dx + dy * dy can differ from it in the last bit
        sq = reduce(np.add.outer, [(dj.conj() * dj).real for dj in d])
        sub = np.nonzero(np.sqrt(sq) <= grown.extents[0])
        return np.ravel_multi_index(tuple(r[s] for r, s in zip(ranges, sub)), self.shape)

    def partial(self, values: MappedValues, axis: int, nodes: np.ndarray) -> np.ndarray:
        """4th-order central difference along a real axis at the flat nodes, one row per
        component of the mapped values, read up to FD_STENCIL_WIDTH nodes away: inside
        the grid at every node of a band that stencil_band built, margin checked."""
        at = values.at
        s = self.nodes_per_axis ** (len(self.shape) - 1 - axis)  # flat stride of the axis
        return (-at(nodes + 2 * s) + 8.0 * at(nodes + s) - 8.0 * at(nodes - s)
                + at(nodes - 2 * s)) / (12.0 * self.spacing[axis])

    def wirtinger(self, values: MappedValues, j: int, nodes: np.ndarray) -> tuple:
        """(d/dz_j, d/dzbar_j) = ((d/dx_j - i d/dy_j)/2, (d/dx_j + i d/dy_j)/2) at the
        flat nodes, a row per mapped component, from one partial along each real axis."""
        dx, dy = self.partial(values, 2 * j, nodes), self.partial(values, 2 * j + 1, nodes)
        return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)

    def stencil_band(self, idx: np.ndarray) -> np.ndarray:
        """Sorted flat indices of the nodes idx and their neighbours up to
        FD_STENCIL_WIDTH along each axis: where stencils of values zero off idx can
        be nonzero.  ValueError if a band node lies within FD_STENCIL_WIDTH of an
        edge, so that a stencil at it would leave the grid: the one margin check."""
        s = np.zeros(self.shape, dtype=bool)
        s.flat[idx] = True
        band = s.copy()
        w = FD_STENCIL_WIDTH
        for axis in range(s.ndim):
            src, dst = np.moveaxis(s, axis, 0), np.moveaxis(band, axis, 0)
            for k in range(1, w + 1):
                dst[k:] |= src[:-k]
                dst[:-k] |= src[k:]
            if dst[:w].any() or dst[-w:].any():  # shifts along other axes add no layer here
                raise ValueError("grid does not contain the form's support with a stencil margin")
        return np.flatnonzero(band)


def make_grid(box: DomainBox, nodes_per_axis: int) -> GridDiscretization:
    return GridDiscretization(box.real_bounds(), nodes_per_axis)


def support_values(form: FormField01, grid: GridDiscretization) -> tuple:
    """Where a form lives on a grid: the sorted flat indices of the nodes of its
    support where some component is nonzero, their (k, n) points and the (n, k)
    coefficients there; ValueError if no node lies in the support."""
    idx = grid.support_nodes(form.support)
    if idx.size == 0:
        raise ValueError(f"grid has no node in the support of the form {form.name!r}")
    pts = grid.points_at(idx)
    values = form.evaluate(pts)
    nonzero = np.any(values != 0.0, axis=0)
    return idx[nonzero], pts[nonzero], values[:, nonzero]


class MappedValues:
    """Values at the sorted flat nodes of a grid, for the stencils: read at any flat
    node through an int32 position map, as that node's column of the values or, off
    the nodes, as a zero column past them."""

    def __init__(self, nodes: np.ndarray, values: np.ndarray, grid: GridDiscretization):
        self.pos = np.full(grid.size, nodes.size, dtype=np.int32)
        self.pos[nodes] = np.arange(nodes.size, dtype=np.int32)
        # C order whatever the order of values: np.take along the last axis of
        # F-ordered (n, k) columns gathers about 20x slower, with the same bits
        self.columns = np.zeros(values.shape[:-1] + (nodes.size + 1,), dtype=values.dtype)
        self.columns[..., :-1] = values
        self.size = self.columns.size  # the values held, which np.size reads

    def at(self, flat: np.ndarray) -> np.ndarray:
        """The values at the flat nodes, a column per node."""
        return np.take(self.columns, self.pos[flat], axis=-1)


@dataclass(frozen=True)
class FormGradient:
    """A form's values and its components' Wirtinger derivatives at nodes of its stencil band."""

    values: np.ndarray  # (n, k) values at the nodes
    band: np.ndarray  # (k,) their sorted flat indices
    dz: np.ndarray  # (n, k): [j] = d alpha_j / dz_j at the nodes
    dzbar: np.ndarray  # (n, n, k): [j, l] = d alpha_j / dzbar_l at the nodes


def form_gradient(form: MappedValues, nodes: np.ndarray, grid: GridDiscretization) -> FormGradient:
    """The FormGradient of a form (its values mapped from its nonzero nodes) at nodes of
    its stencil band, from one Wirtinger pair of all its components per coordinate."""
    values = form.at(nodes)
    dz = np.empty_like(values)
    dzbar = np.empty((grid.n,) + values.shape, dtype=complex)
    for k in range(grid.n):
        d_dz, d_dzbar = grid.wirtinger(form, k, nodes)
        dz[k], dzbar[:, k] = d_dz[k], d_dzbar
    return FormGradient(values, nodes, dz, dzbar)


def band_blocks(band: np.ndarray, form: MappedValues, grid: GridDiscretization):
    """For each block of BAND_BLOCK consecutive band nodes, its slice of the band and
    the form's gradient there: the stencil path of every grid energy."""
    for start in range(0, band.size, BAND_BLOCK):
        block = slice(start, start + BAND_BLOCK)
        yield block, form_gradient(form, band[block], grid)


def dbar_01(g: FormGradient, grid: GridDiscretization) -> np.ndarray:
    """(0,2)-coefficients (d alpha_k / dzbar_j - d alpha_j / dzbar_k), j < k, at the
    nodes of alpha's gradient g: an (n(n-1)/2, k) array in lexicographic (j, k)
    order, empty when n = 1 (there are no (0,2)-forms on C)."""
    d = g.dzbar
    rows = [d[k, j] - d[j, k] for j in range(grid.n) for k in range(j + 1, grid.n)]
    return np.array(rows, dtype=complex).reshape(len(rows), d.shape[-1])


def weight_gradient(phi: ScalarField, idx: np.ndarray, band: np.ndarray,
                    grid: GridDiscretization) -> np.ndarray:
    """(k, n) dphi/dz_j at the k nodes of a form's stencil band, zero off the flat
    nodes idx where the form is nonzero: grad phi at idx, or for a weight without
    grad the stencil gradient of its values on the band, evaluated once.  A pole (a
    value or gradient that is not finite) there raises PoleInStencilError."""
    if phi.grad is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            gphi = np.asarray(phi.grad(grid.points_at(idx)), dtype=complex)
    else:
        pv = np.asarray(phi(grid.points_at(band)), dtype=float)
        if not np.all(np.isfinite(pv)):  # every value the stencils at idx read
            raise PoleInStencilError("pole in the stencil band of the form")
        mapped = MappedValues(band, pv, grid)
        gphi = np.stack([grid.wirtinger(mapped, j, idx)[0] for j in range(grid.n)], axis=1)
    if not np.all(np.isfinite(gphi)):
        raise PoleInStencilError("pole in the support of the form")
    on_band = np.zeros((band.size, grid.n), dtype=complex)
    on_band[np.searchsorted(band, idx)] = gphi
    return on_band


def dbar_star(g: FormGradient, gphi: np.ndarray) -> np.ndarray:
    """Formal adjoint -sum_j (d alpha_j / dz_j - alpha_j dphi/dz_j) at the nodes of
    alpha's gradient g, from the weight's (k, n) gradient gphi at the same nodes
    (weight_gradient)."""
    out = np.zeros(g.band.size, dtype=complex)
    for j in range(g.dz.shape[0]):
        out -= g.dz[j] - g.values[j] * gphi[:, j]
    return out


def band_energy(g: FormGradient, grid: GridDiscretization) -> tuple:
    """The part of the grid energies that no weight enters, at the nodes of alpha's
    gradient g: the gradient energy and the points.  A band node off the support lies
    within FD_STENCIL_WIDTH steps along an axis of a node where alpha is nonzero, so
    its stencil gradient is nonzero unless the stencil's terms cancel exactly: the
    band is where the integrands live."""
    # the gradient energy sum_{j,k} |d alpha_j / dzbar_k|^2, summed in (j, k) order
    grad_sq = np.sum(np.abs(g.dzbar.reshape(grid.n**2, -1)) ** 2, axis=0)
    return grad_sq, grid.points_at(g.band)


def band_curvature(g: FormGradient, pts: np.ndarray, phi: ScalarField, psi, omega) -> tuple:
    """At the nodes of alpha's gradient g, with points pts (band_energy): Re sum_{j,k}
    (phi_{j kbar} - omega_jk) alpha_j conj(alpha_k) and the exponent -(phi + psi).
    An exponent of +inf raises WeightOverflowError before the Levi form is taken,
    as node_weights would."""
    expo = -(phi(pts) + psi(pts))
    check_overflow(expo)
    levi = levi_form(phi, pts) - omega(pts)
    return np.real(np.einsum("mjk,jm,km->m", levi, g.values, np.conj(g.values))), expo


@dataclass(frozen=True)
class BochnerReport:
    """The energy identity: its four terms, each a Scaled on the one shift of the weight."""

    terms: tuple  # curvature, gradient, dbar, adjoint

    def _side(self, first: int) -> Scaled:
        a, b = self.terms[first : first + 2]
        return Scaled(a.total + b.total, a.shift)

    lhs = property(lambda self: self._side(0))
    rhs = property(lambda self: self._side(2))

    @property
    def residual(self) -> float:  # of the scaled sides
        lhs, rhs = self.lhs.total, self.rhs.total
        return abs(lhs - rhs) / max(lhs, rhs, 1e-300)

    def verified(self, gate: float) -> bool:  # lhs = 0: the form vanishes at every node
        return self.lhs.sign > 0 and self.residual <= gate


RESIDUAL_GATE_N1 = 1e-3  # the largest residual of a verified identity at n = 1
RESIDUAL_GATE = 5e-3  # and at every n >= 2


def residual_gate(n: int) -> float:
    """The largest bochner_residual residual that verifies the identity in C^n."""
    return RESIDUAL_GATE_N1 if n == 1 else RESIDUAL_GATE


def default_grid_nodes(n: int) -> int:
    """Nodes per axis of the Bochner grid in C^n when the caller names none."""
    return 256 if n == 1 else 24


def bochner_residual(alpha: FormField01, phis: list, grid: GridDiscretization) -> list:
    """Both sides of the energy identity and their relative residual, one
    BochnerReport for each weight of phis, in their order.  The form's band, its
    mapped values and one blocked gradient pass (band_blocks) serve every weight;
    each weight takes its integrands from each block, and only they, per band node,
    are kept for its own reduction.  Every weight's gradient is put on the band before
    the first block, so a pole of any weight is refused before any Levi form."""
    idx, _, values = support_values(alpha, grid)
    band, form = grid.stencil_band(idx), MappedValues(idx, values, grid)
    gphis = [weight_gradient(phi, idx, band, grid) for phi in phis]
    psi, omega = zero_field(grid.n), zero_omega(grid.n)
    # the gradient energy and |dbar alpha|^2 over increasing pairs (none when n = 1)
    grad_sq, dbar_sq = (np.empty(band.size) for _ in range(2))
    # per weight, |dbar*_phi alpha|^2, the exponent and the curvature integrand
    # Re sum_{j,k} phi_{j kbar} alpha_j conj(alpha_k)
    adjoint_sq, expo, curvature = np.empty((3, len(phis), band.size))
    for block, g in band_blocks(band, form, grid):
        dbar_sq[block] = np.sum(np.abs(dbar_01(g, grid)) ** 2, axis=0)
        grad_sq[block], pts = band_energy(g, grid)
        for k, (phi, gphi) in enumerate(zip(phis, gphis)):
            adjoint_sq[k, block] = np.abs(dbar_star(g, gphi[block])) ** 2
            curvature[k, block], expo[k, block] = band_curvature(g, pts, phi, psi, omega)
    return [BochnerReport(tuple(weighted_sums(expo[k], grid.cell_volume,
                                              (curvature[k], grad_sq, dbar_sq, adjoint_sq[k]))))
            for k in range(len(phis))]


# ---------------------------------------------------------------------------
# form corpus: compactly supported bumps with closed-form derivatives
# ---------------------------------------------------------------------------


def bump_profile(radius: float):
    """Radial bump b(z) = (1 - |z|^2/R^2)_+^4 about the origin: C^3 at the support edge.

    Returns (value, dzbar) callables; dzbar_j b = -(4/R^2)(1-t)_+^3 z_j.
    """
    rr = radius * radius

    def t_of(z):
        return row_sum(np.abs(z) ** 2) / rr

    def value(z):
        return np.maximum(1.0 - t_of(z), 0.0) ** 4

    def dzbar(z, j):
        cut = np.maximum(1.0 - t_of(z), 0.0) ** 3
        return -4.0 / rr * cut * z[:, j]

    return value, dzbar


def bump_const_form(xi, radius: float = 1.0) -> FormField01:
    """alpha = xi * b(z) with the radial quartic bump b centred at the origin."""
    xi = as_point(xi)
    value, _ = bump_profile(radius)
    return FormField01("bump_const", lambda z: xi[:, None] * value(z), unit_ball(xi.size, radius))


def bump_zbar_form(n: int, radius: float = 1.0) -> FormField01:
    """alpha = b dzbar_1 + zbar_n b dzbar_n (n >= 2); b (1 + zbar) dzbar for n = 1, with
    the radial quartic bump b centred at the origin."""
    value, _ = bump_profile(radius)

    def coefficients(z):
        b = value(z)
        if n == 1:
            return (b * (1.0 + np.conj(z[:, 0])))[None, :]
        out = np.zeros((n, z.shape[0]), dtype=complex)
        out[0] = b
        out[n - 1] = b * np.conj(z[:, n - 1])
        return out

    return FormField01("bump_zbar2", coefficients, unit_ball(n, radius))


def zero_field(n: int) -> ScalarField:
    return ScalarField(
        "zero", n,
        lambda z: np.zeros(z.shape[0]),
        grad=lambda z: np.zeros((z.shape[0], n), dtype=complex),
        hess=lambda z: np.zeros((z.shape[0], n, n), dtype=complex),
    )
