"""Constructive n = 1 solves of du/dzbar = f and the weighted estimate ratio.

The particular solution is the solid Cauchy transform
u(z) = (1/pi) int f(zeta) / (z - zeta) dA(zeta); subtracting its weighted
Bergman projection onto a polynomial subspace (extension's one projection,
which the best extension constant also takes) yields the minimal-norm
solution, whose squared norm against int (|f|^2 / psi_zz) e^{-(phi+psi)}
gives the estimate ratio (<= 1 for subharmonic phi, by the classical weighted
estimate; > 1 witnesses failure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bochner import FormField01, GridDiscretization, MappedValues, bump_profile, support_values
from .errors import DegenerateWeightError, SingularGramError
from .extension import weighted_bergman_projection
from .fields import Scaled, levi_form, node_weights
from .geometry import abs_sq, unit_ball, weighted_total

RESIDUAL_MARGIN_CELLS = 4  # dbar_residual skips this many node layers at each edge
RESIDUAL_GATE = 5e-3  # the largest dbar_residual of a solve that counts as solved


@dataclass(frozen=True)
class SolveResult:
    """Solves and estimate ratio; the two norms are Scaled on the one shift of the weight."""

    residual: float
    norms: tuple  # minimal_norm_sq, comparison_integral

    ratio = property(lambda self: self.norms[0].total / self.norms[1].total)


def dbar_bump() -> FormField01:
    """dbar of the radial quartic bump on the unit disc: a smooth right-hand side."""
    _, dzbar = bump_profile(1.0)
    return FormField01("dbar_bump", lambda z: dzbar(z, 0)[None, :], unit_ball(1))


def _square_grid_1d(grid: GridDiscretization) -> float:
    if grid.n != 1:
        raise ValueError("the transform is one-dimensional; use an n = 1 grid")
    hx, hy = grid.spacing
    if abs(hx - hy) > 1e-12 * max(hx, hy):
        raise ValueError("the transform needs equal spacing on both real axes")
    return float(hx)


def cauchy_transform(f_values: np.ndarray, grid: GridDiscretization) -> np.ndarray:
    """Particular solution of du/dzbar = f by the discrete solid Cauchy transform.

    The singular node cell is excised: its closed-form cell integral of the
    kernel vanishes by symmetry, so the diagonal kernel entry is zero and the
    quadrature stays second-order accurate.  Only the bounding block of the
    nonzero entries of f, m_x x m_y nodes, is convolved, with the kernel at the
    offsets from a block node to an output node.  The nn x nn window of that
    linear convolution is computed as a circular one of the smallest 5-smooth
    length >= nn + m - 1 per axis, whose wrap-around leaves the window untouched.
    """
    h = _square_grid_1d(grid)
    nn = grid.nodes_per_axis
    f = np.asarray(f_values, dtype=complex).reshape(nn, nn)
    if np.max(np.abs(np.concatenate([f[0], f[-1], f[:, 0], f[:, -1]]))) > 1e-12:
        raise ValueError("support touches the grid boundary")
    rows, cols = (np.flatnonzero(np.any(f != 0.0, axis=axis)) for axis in (1, 0))
    if rows.size == 0:
        return np.zeros(nn * nn, dtype=complex)
    r0, r1, c0, c1 = rows[0], rows[-1], cols[0], cols[-1]
    block = f[r0 : r1 + 1, c0 : c1 + 1]
    dz = np.arange(-r1, nn - r0)[:, None] * h + 1j * (np.arange(-c1, nn - c0) * h)
    kernel = np.divide(1.0, dz, out=np.zeros_like(dz), where=dz != 0.0)
    lengths = [_fast_length(nn + m - 1) for m in block.shape]
    full = np.fft.ifft2(np.fft.fft2(block, lengths) * np.fft.fft2(kernel, lengths))
    u = full[r1 - r0 : r1 - r0 + nn, c1 - c0 : c1 - c0 + nn] * (h * h / math.pi)
    return u.ravel()


def _fast_length(n: int) -> int:
    """The smallest integer >= n whose only prime factors are 2, 3 and 5: over the
    odd parts 3^b 5^c, the least power-of-2 multiple that is >= n."""
    odd = (3**b * 5**c for b in range(n.bit_length()) for c in range(n.bit_length()))
    return min(k << (-(-n // k) - 1).bit_length() for k in odd)


def dbar_residual(u_values: np.ndarray, f_values: np.ndarray, grid: GridDiscretization) -> float:
    """Interior sup-norm of du/dzbar - f (4th-order differences inside), over
    the nodes at least RESIDUAL_MARGIN_CELLS >= FD_STENCIL_WIDTH from every edge,
    where the stencil reads u, mapped at every node, inside the grid."""
    keep = np.arange(RESIDUAL_MARGIN_CELLS, grid.nodes_per_axis - RESIDUAL_MARGIN_CELLS)
    if keep.size == 0:
        raise ValueError(
            f"grid has no node {RESIDUAL_MARGIN_CELLS} layers inside its edges for the residual")
    nodes = np.ravel_multi_index(np.ix_(keep, keep), grid.shape).ravel()
    u = np.asarray(u_values, dtype=complex)
    _, du = grid.wirtinger(MappedValues(np.arange(u.size), u, grid), 0, nodes)
    return float(np.max(np.abs(du - np.asarray(f_values)[nodes])))


def hormander_ratio(
    weights: list[tuple], f: FormField01, degree: int, grid: GridDiscretization
) -> list:
    """Minimal-norm solves of du/dzbar = f_1 and the weighted estimate ratio,
    one SolveResult for each (phi, psi) pair of weights; the transform of f
    and its residual are computed once for all pairs, and each pair projects
    over the nodes where its weight is nonzero, in a basis centred there
    (_centered_powers); SingularGramError if they are fewer than degree + 1, and
    DegenerateWeightError if the weight underflows to 0 on the whole support of f.

    ratio = ||u_min||^2_{phi+psi} / int (|f|^2 / psi_zz) e^{-(phi+psi)}.
    The minimal norm is taken over u_particular minus polynomials of degree
    <= N, which can only overestimate it, so ratio <= 1 verdicts are sound.
    """
    if f.n != 1:
        raise ValueError("the constructive solve is one-dimensional")
    pts = grid.points
    idx, f_pts, f_values = support_values(f, grid)
    fv = np.zeros(pts.shape[0], dtype=complex)
    fv[idx] = f_values[0]
    u_part = cauchy_transform(fv, grid)
    residual = dbar_residual(u_part, fv, grid)

    results = []
    for phi, psi in weights:
        wq, shift = node_weights(-(phi(pts) + psi(pts)), grid.weights)
        live = np.flatnonzero(wq)
        if live.size <= degree:
            raise SingularGramError(
                f"the weight is nonzero at {live.size} nodes, fewer than the {degree + 1} "
                f"polynomials of degree <= {degree}; lower the degree or refine the grid")
        rows = _centered_powers(pts[live, 0], wq[live], degree)
        _, _, minimal_norm_sq = weighted_bergman_projection(u_part[live], wq[live], rows)
        psi_zz = np.real(levi_form(psi, f_pts)[:, 0, 0])
        if np.any(psi_zz < 1e-8):
            raise ValueError("psi is not strictly subharmonic on the support of f")
        comparison = float(weighted_total(abs_sq(f_values[0]) / psi_zz, wq[idx]))
        if comparison == 0.0:
            raise DegenerateWeightError("relative to its largest value on the grid, the weight "
                                        "underflows to 0 at every node of the support of f")
        norms = (Scaled(minimal_norm_sq, shift), Scaled(comparison, shift))
        results.append(SolveResult(residual, norms))
    return results


def _centered_powers(z: np.ndarray, w: np.ndarray, degree: int):
    """The basis rows of weighted_bergman_projection for the polynomials of degree <=
    degree at the nodes z: the powers of t = (z - c) / rho, for the w-weighted mean c
    of z and root-mean-square distance rho from it, a basis that stays far from
    collinear where e^{-eta} concentrates.  c, rho and t are computed once over all
    nodes; rows(nodes) builds the (degree + 1, b) powers at a slice of them, and raises
    SingularGramError when they overflow there (checked on the top power, which a
    non-finite lower power carries into)."""
    total = np.sum(w)
    c = weighted_total(z, w) / total
    t = (z - c) / math.sqrt(weighted_total(abs_sq(z - c), w) / total)

    def rows(nodes: slice) -> np.ndarray:
        tb = t[nodes]
        powers = np.empty((degree + 1, tb.size), dtype=complex)  # a row per power: contiguous
        powers[0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # read by the check below
            for k in range(1, degree + 1):
                np.multiply(powers[k - 1], tb, out=powers[k])
        if not np.all(np.isfinite(powers[-1])):
            raise SingularGramError(
                f"the powers of degree {degree} of the centred coordinate overflow at the "
                f"far weighted nodes; lower the degree or refine the grid")
        return powers

    return rows
