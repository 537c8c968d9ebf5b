"""Constructive witnesses against the sharp and coarse weighted estimates.

Sharp side: if the Levi form of phi drops below a continuous comparison form
omega somewhere, a localized (0,1)-form f = dbar(nu), a quadratic weight
psi_s = s(|z - z0|^2 - r^2/4), and the metric-scaled form alpha^s =
f (sI + g)^{-1} drive the sign functional

    E = int sum (phi_jk - g_jk) alpha_j conj(alpha_k) e^{-(phi+psi)}
      + int sum |d alpha_j / dzbar_k|^2 e^{-(phi+psi)}

negative for large s; such a certificate falsifies the sharp estimate
property.  Coarse side: annulus forms alpha_eps, log-pole weights psi_delta,
an explicit constant chain with C = 2^{p+2n} mu(B_1), and the growth
diagnostic log C'_m / m -> 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ContinuityRequiredError, InsufficientNodesError, MetricNotPositiveError
from .fields import (
    LEVI_TOL, REGION_RESOLUTION, HermitianField, Scaled, ScalarField, levi_gap, log_levi,
    region_nodes, weighted_sums,
)
from .bochner import (
    FormField01, GridDiscretization, MappedValues, band_blocks, band_curvature, band_energy,
    make_grid, support_values,
)
from .geometry import DomainBox, abs_sq, as_point, log_ball_volume, row_norm, row_sq_norm, row_sum


# ---------------------------------------------------------------------------
# the cutoff
# ---------------------------------------------------------------------------

FLAT_TOP = 0.25  # the cutoff is 1 up to here and 0 from t = 1 on


def cutoff(t):
    """The monotone C^1 cutoff chi of the witness and annulus forms: 1 on
    [0, FLAT_TOP], 0 from 1 on, and the cubic smoothstep between.

    Its slope satisfies sup|chi'| <= 2: the cubic smoothstep on [1/4, 1]
    attains exactly (3/2)/(3/4) = 2.
    """
    t = np.asarray(t, dtype=float)
    u = np.clip((t - FLAT_TOP) / (1.0 - FLAT_TOP), 0.0, 1.0)
    return 1.0 - (3.0 * u * u - 2.0 * u * u * u)


def cutoff_deriv(t):
    """chi'(t): nonzero only strictly between FLAT_TOP and 1."""
    t = np.asarray(t, dtype=float)
    width = 1.0 - FLAT_TOP
    u = (t - FLAT_TOP) / width
    inside = (u > 0.0) & (u < 1.0)
    out = np.zeros_like(u)
    out[inside] = -(6.0 * u[inside] - 6.0 * u[inside] ** 2) / width
    return out


# ---------------------------------------------------------------------------
# sharp-estimate witness objects
# ---------------------------------------------------------------------------


def build_witness_form(z0, xi, r: float) -> FormField01:
    """f = dbar(nu) in closed form, for nu(z) = <xi, conj(z - z0)> chi(|z-z0|^2/r^2).

    f has f_j = xi_j chi + <xi, conj(z-z0)> chi'(t) (z_j - z0_j)/r^2,
    equals sum_j xi_j dzbar_j on B(z0, r/2), and is supported in B(z0, r).
    """
    z0 = as_point(z0)
    xi = as_point(xi)
    if abs(np.linalg.norm(xi) - 1.0) > 1e-10:
        raise ValueError("direction xi must be a unit vector")
    rr = r * r

    def coefficients(z):
        d = z - z0
        t = row_sq_norm(d) / rr
        pair = d @ np.conj(xi)  # = sum_j xi_j conj(z_j - z0_j), conjugated
        return xi[:, None] * cutoff(t) + np.conj(pair) * cutoff_deriv(t) * d.T / rr

    support = DomainBox("ball", z0, np.array([r]))
    return FormField01("dbar_nu", coefficients, support)


def build_psi_s(z0, r: float, s: float) -> ScalarField:
    """psi_s(z) = s (|z - z0|^2 - r^2/4): Hessian sI, nonpositive on B(z0, r/2)."""
    if s <= 0.0:
        raise ValueError("s must be positive")
    z0 = as_point(z0)
    n = z0.size

    return ScalarField(
        f"psi_s:{s:g}", n,
        lambda z: s * (row_sq_norm(z - z0) - r * r / 4.0),
        grad=lambda z: s * np.conj(z - z0),
        hess=lambda z: s * np.broadcast_to(np.eye(n), (z.shape[0], n, n)).astype(complex),
    )


def alpha_from_f(f_coeffs, metric) -> np.ndarray:
    """Row-vector solve alpha = f B^{-1} for Hermitian positive definite B.

    Batched over leading axes: f is (..., n) and B is (..., n, n), or one
    (n, n) metric B shared by every f, which takes a single solve with all f as
    right-hand sides.  Satisfies
    sum_{j,k} B_jk alpha_j conj(alpha_k) = sum (B^{-1})_jk f_j conj(f_k).
    """
    f = np.asarray(f_coeffs, dtype=complex)
    b = np.asarray(metric, dtype=complex)
    lam_min = float(np.min(np.linalg.eigvalsh(b), initial=np.inf))
    if lam_min <= 1e-12:
        raise MetricNotPositiveError(
            f"metric not positive: smallest eigenvalue {lam_min:.3e}"
        )
    # alpha^T = f^T B^{-1}  <=>  B^T alpha = f
    if b.ndim == 2:
        n = b.shape[0]
        return np.linalg.solve(b.T, f.reshape(-1, n).T).T.reshape(f.shape)
    return np.linalg.solve(np.swapaxes(b, -1, -2), f[..., None])[..., 0]


def estimate_functional_E(
    alpha: tuple, phi: ScalarField, psi: ScalarField, omega: HermitianField,
    grid: GridDiscretization,
) -> Scaled:
    """The sign functional: curvature-gap energy plus gradient energy of alpha.

    Nonnegative whenever levi(phi) - g is positive semidefinite on the support
    of alpha; a negative value falsifies the sharp estimate property for
    (phi, omega).  alpha is the pair of the sorted flat indices of the nodes where
    alpha is nonzero and its (n, k) values there (as support_values returns them),
    whose stencil band (grid.stencil_band) must keep its margin; every field is
    evaluated on the band of alpha only, a block of BAND_BLOCK nodes at a time, and
    only the integrand and the exponent of each band node are kept for the one
    reduction (band nodes weigh grid.cell_volume), which carries the exponent's shift.
    """
    band, form = grid.stencil_band(alpha[0]), MappedValues(*alpha, grid)
    integrand, expo = (np.empty(band.size) for _ in range(2))
    for block, g in band_blocks(band, form, grid):
        grad_sq, pts = band_energy(g, grid)
        quad, expo[block] = band_curvature(g, pts, phi, psi, omega)
        integrand[block] = quad + grad_sq
    return weighted_sums(expo, grid.cell_volume, [integrand])[0]


@dataclass(frozen=True)
class WitnessCertificate:
    """A concrete falsification of the sharp estimate property.

    c is the Levi-gap depth at the selected center z0; the selection radius r
    keeps the sampled gap below -c/2 throughout B(z0, r); E is the (negative)
    value of the sign functional at scale s on the recorded grid, and E_doubled
    its value on the grid with twice as many nodes per axis.
    """

    z0: np.ndarray
    xi: np.ndarray
    r: float
    c: float
    s: float
    E: Scaled
    E_doubled: Scaled
    grid_nodes: int


@dataclass(frozen=True)
class WitnessScan:
    """A witness scan's outcome: whether the Levi form of phi dominates omega at
    every node of the region grid (no eigenvalue of the gap below -LEVI_TOL, the
    test of check_lower_bound), and the certificate found, if any."""

    levi_lower_bound_holds: bool
    certificate: Optional[WitnessCertificate]


# the s-schedule is S_FIRST, 10 S_FIRST, 100 S_FIRST, ... up to an smax (s_schedule);
# S_MAX is the smax of criteria 4 and 8 and of witness --smax by default
S_FIRST = 10.0
S_MAX = 1e4
RADIUS_LADDER_STEPS = 6  # _select_radius tries r_max / 2^k for k below this
INFIMUM_SAMPLES = 20000  # interior sample points of ball_infimum
MODULUS_BLOCK_PAIRS = 1 << 18  # node pairs that modulus_of_continuity compares at once


def s_schedule(smax: float) -> list:
    """The s values that a witness scan tries: S_FIRST, 10 S_FIRST, 100 S_FIRST, ...
    up to smax (1e-12 relative slack)."""
    schedule = []
    s = S_FIRST
    while s <= smax * (1.0 + 1e-12):
        schedule.append(s)
        s *= 10.0
    return schedule


def default_grid_nodes(n: int) -> int:
    """Nodes per axis of the witness grid in C^n when the caller names none."""
    return 96 if n == 1 else 16


def annulus_grid_nodes(n: int) -> int:
    """Nodes per axis of the coarse chain's annulus grid in C^n at every eps: its box
    is 2.5 eps wide, so 41, the fewest that n = 2 takes, meet coarse_rhs_bound's
    spacing check eps/16.  From n = 3 on, 41 per axis are too many nodes."""
    if n > 2:
        raise ValueError(f"the coarse chain has no grid in C^{n}: 41 nodes per axis, the "
                         f"fewest that resolve the annulus, make 41^{2 * n} nodes")
    return 256 if n == 1 else 41


def scan_sharp_witness(
    phi: ScalarField,
    omega: HermitianField,
    region: DomainBox,
    smax: float,
    grid_nodes: int,
) -> WitnessScan:
    """Search for a sign-functional certificate against the sharp estimate.

    Evaluates the Levi gap levi(phi) - omega once on the region grid, at
    REGION_RESOLUTION nodes per real axis.  Among
    the nodes where it has an eigenvalue below -LEVI_TOL it picks the center
    z0 with the largest c r_max^2, where c is the gap depth there and r_max
    the radius of the largest ball about z0 in the region; then the largest
    dyadic radius r <= r_max with sampled gap < -c/2 on B(z0, r).  It builds
    the localized form and sweeps s_schedule(smax) until E < 0 on the grid of
    grid_nodes nodes per axis and on the doubled grid.
    There is no certificate for weights whose Levi form dominates omega on the
    region, when no ladder radius keeps the gap below -c/2, and when no s of
    the schedule certifies a violation.
    """
    pts = region_nodes(phi, region, REGION_RESOLUTION)
    gap, eigs = levi_gap(phi, omega, pts)
    holds = not np.any(eigs < -LEVI_TOL)
    center = _select_center(region, pts, gap, eigs)
    r = None if center is None else _select_radius(phi, omega, center)
    if r is None:
        return WitnessScan(holds, None)
    z0, xi, c, _ = center
    f = build_witness_form(z0, xi, r)

    @functools.cache
    def on_grid(nodes):
        # the grid, and f and omega at the nodes where f is nonzero: none depends on s
        grid = _witness_grid(z0, r, nodes)
        idx, pts, fv = support_values(f, grid)
        g = omega(pts)  # one (n, n) matrix where omega is the same at every node: one solve
        return grid, idx, fv.T, (g[0] if len(g) and np.all(g == g[:1]) else g)

    def energy(nodes, psi, s):
        # alpha^s = f (sI + g)^{-1} where f is nonzero; equals f/s when omega vanishes
        grid, idx, fv, g = on_grid(nodes)
        alpha = alpha_from_f(fv, g + s * np.eye(phi.n)).T
        return estimate_functional_E((idx, alpha), phi, psi, omega, grid)

    for s in s_schedule(smax):
        psi = build_psi_s(z0, r, s)
        value = energy(grid_nodes, psi, s)
        if value.sign < 0:
            value_doubled = energy(2 * grid_nodes, psi, s)
            if value_doubled.sign < 0:
                cert = WitnessCertificate(z0, xi, r, c, s, value, value_doubled, grid_nodes)
                return WitnessScan(holds, cert)
    return WitnessScan(holds, None)


def _select_center(region, pts, gap, eigs):
    """The node with a negative gap whose ball is the most certifiable.

    Scores each node with eigenvalue below -LEVI_TOL and room for a ball by
    c r_max^2 (c the gap depth, r_max its ball's radius) and returns the best
    node, its gap eigenvector, c and r_max; None when no node qualifies.
    """
    negative = np.flatnonzero(eigs < -LEVI_TOL)
    rooms = region.inradius_from(pts[negative])
    usable = rooms > 0.0
    if not np.any(usable):
        return None
    negative, rooms = negative[usable], rooms[usable]
    best = int(np.argmax(-eigs[negative] * rooms**2))
    pick = negative[best]
    _, v = np.linalg.eigh(gap[pick])
    return pts[pick], v[:, 0], float(-eigs[pick]), float(rooms[best])


def _witness_grid(z0, r: float, nodes: int) -> GridDiscretization:
    # the pad leaves 5 / (1 + 10/(nodes - 1)) spacings around the support ball; the
    # stencil band's margin takes 3, as the form vanishes on the ball's boundary and its
    # nonzero nodes must lie 2 FD_STENCIL_WIDTH layers in: fewer than 16 nodes raise
    pad = max(0.15 * r, 10.0 * r / max(nodes - 1, 1))
    return make_grid(DomainBox("ball", z0, np.array([r + pad])), nodes)


def _select_radius(phi, omega, center) -> Optional[float]:
    """Largest r_max / 2^k, k < RADIUS_LADDER_STEPS, with sampled Levi gap < -c/2
    throughout the ball about z0, for center = (z0, xi, c, r_max); None when no
    radius of the ladder has it."""
    z0, _, c, r_max = center
    for k in range(RADIUS_LADDER_STEPS):
        r = r_max / (2.0**k)
        _, eigs = levi_gap(phi, omega, DomainBox("ball", z0, np.array([r])).grid_points(7))
        if np.max(eigs) < -c / 2.0:
            return r
    return None


# ---------------------------------------------------------------------------
# coarse-estimate chain objects
# ---------------------------------------------------------------------------


def build_alpha_eps(w, eps: float) -> FormField01:
    """alpha_eps = chi'(|z-w|^2/eps^2) sum_j ((z_j - w_j)/eps^2) dzbar_j.

    Supported in the annulus eps/2 <= |z - w| <= eps; equals
    dbar of chi(|z-w|^2/eps^2).
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    w = as_point(w)
    ee = eps * eps

    def coefficients(z):
        d = z - w
        t = row_sq_norm(d) / ee
        return cutoff_deriv(t) * d.T / ee

    support = DomainBox("ball", w, np.array([eps]))
    return FormField01("alpha_eps", coefficients, support)


def build_psi_delta(w, delta: float, n: int) -> ScalarField:
    """psi_delta = |z|^2 + n log(|z - w|^2 + delta^2).

    For delta > 0 this is C^2 with the closed-form Levi form I + n (I/u -
    conj(d) d^T/u^2), d = z - w, u = |d|^2 + delta^2 (fields.log_levi); delta = 0
    gives the usc limit with a logarithmic pole at w and psi_0 >= 2n log|z - w| + |z|^2.
    """
    if not (delta >= 0.0 and math.isfinite(delta * delta)):
        raise ValueError("delta must be nonnegative, with a square below the double range")
    w = as_point(w)
    dd = delta * delta

    def ev(z):
        u = row_sq_norm(z - w) + dd
        with np.errstate(divide="ignore"):
            return row_sq_norm(z) + n * np.log(u)

    if delta == 0.0:
        return ScalarField("psi_delta:0", n, ev)

    def grad(z):
        d = z - w
        u = row_sq_norm(d) + dd
        return np.conj(z) + n * np.conj(d) / u[:, None]

    def hess(z):
        d = z - w
        return np.eye(n) + n * log_levi(d, row_sq_norm(d) + dd)

    return ScalarField(f"psi_delta:{delta:g}", n, ev, grad=grad, hess=hess)


def _psi_delta_norm_sq(f_values, z, w, delta: float, n: int) -> np.ndarray:
    """|f|^2_H = sum_{j,k} (H^{-1})_jk f_j conj(f_k) for the Levi form H of psi_delta.

    f_values is (n, m) at the m points z, none of them the pole.  H = a I -
    b conj(d) d^T with a = 1 + n/u and b = n/u^2, so by Sherman-Morrison

        |f|^2_H = |f|^2 / a + b |sum_j f_j conj(d_j)|^2 / (a (a - b |d|^2)),

    where a - b |d|^2 = 1 + q delta^2/u >= 1 (q = n/u, b = q/u, no u^2): both terms >= 0.
    """
    d = z - w
    u = row_sq_norm(d) + delta * delta
    q = n / u
    a = 1.0 + q
    along_d = abs_sq(row_sum(f_values.T * np.conj(d)))
    return (
        row_sq_norm(f_values.T) / a
        + (q / u) * along_d / (a * (1.0 + q * (delta * delta / u)))
    )


@dataclass(frozen=True)
class CoarseChainReport:
    m: int
    eps: float
    delta: float
    rhs_integral: Scaled
    bound: Scaled
    inf_phi: float

    verified = property(lambda self: self.rhs_integral.at_most(self.bound))


def ball_infimum(phi: ScalarField, w, eps: float) -> float:
    """Approximate inf over the closed ball B(w, eps) by dense deterministic
    sampling: INFIMUM_SAMPLES seeded points, a boundary shell and the center."""
    w = as_point(w)
    n = w.size
    rng = np.random.default_rng(0)
    g = rng.standard_normal((INFIMUM_SAMPLES, 2 * n))
    dirs = g[:, 0:n] + 1j * g[:, n:]
    nv = row_norm(dirs)[:, None]
    nv[nv == 0.0] = 1.0
    radii = eps * rng.uniform(0.0, 1.0, size=INFIMUM_SAMPLES) ** (1.0 / (2 * n))
    pts = w[None, :] + dirs / nv * radii[:, None]
    # include the center and a shell of boundary points
    shell = w[None, :] + dirs[:2048] / nv[:2048] * eps
    pts = np.concatenate([pts, shell, w[None, :]])
    vals = phi(pts)
    return float(np.min(vals))


def log_envelope_constant(p: float, n: int) -> float:
    """log C, C = 2^{p+2n} mu(B_1), the envelope constant of the coarse chain in C^n."""
    return (p + 2 * n) * math.log(2.0) + log_ball_volume(n)


def coarse_rhs_bound(
    phi: ScalarField, p: float, w, blocks: Sequence[tuple], deltas: Sequence[float],
    m_log_c: Sequence[tuple],
) -> list:
    """Numerically verify C_m int |alpha_eps|^p_{metric} e^{-(m phi + psi_delta)}
    <= C C_m e^{-m inf phi} / eps^p with C = 2^{p+2n} mu(B_1), given log(C_m), for
    each (m, log C_m) of m_log_c, (eps, grid nodes per axis) of blocks and delta:
    one report per tuple, in (m, eps, delta) order.  Per eps, the grid, alpha, phi
    and inf phi are computed once, psi and its norm once per delta.  Both sides are
    carried as logs: |alpha|^p rides in the exponent, and the bound is one log.
    """
    w = as_point(w)
    n = w.size
    log_c = log_envelope_constant(p, n)
    rows = [[] for _ in m_log_c]
    for eps, grid_nodes in blocks:
        alpha = build_alpha_eps(w, eps)
        grid = _annulus_grid(w, eps, grid_nodes)
        spacing = float(np.max(grid.spacing))
        if spacing > eps / 16.0 + 1e-15:
            raise ValueError(
                f"grid does not resolve the annulus: spacing {spacing:.3e} > eps/16"
            )
        # alpha_eps vanishes on |z - w| < eps/2, where chi' = 0, so the pole of psi_0
        # at w is never among the nodes where it is nonzero; the 0.25 eps pad at a spacing
        # of at most eps/16 keeps them 4 layers off the edge, so they weigh cell_volume
        idx, pts, av = support_values(alpha, grid)
        phi_use = phi(pts)
        inf_phi = ball_infimum(phi, w, eps)
        for delta in deltas:
            psi_use = build_psi_delta(w, delta, n)(pts)
            log_norm_p = (p / 2.0) * np.log(_psi_delta_norm_sq(av, pts, w, delta, n))
            for row, (m, log_c_m) in zip(rows, m_log_c):
                [rhs] = weighted_sums(log_norm_p - (m * phi_use + psi_use), grid.cell_volume, [1.0])
                rhs = Scaled(rhs.total, rhs.shift + log_c_m)
                bound = Scaled(1.0, log_c - p * math.log(eps) + log_c_m - m * inf_phi)
                row.append(CoarseChainReport(m, eps, delta, rhs, bound, inf_phi))
        # free this eps's grid and support arrays before the next eps's grid is built
        del grid, idx, pts, av, phi_use
    return [rep for row in rows for rep in row]


def _annulus_grid(w, eps: float, nodes: int) -> GridDiscretization:
    pad = 0.25 * eps
    return make_grid(DomainBox("ball", w, np.array([eps + pad])), nodes)


def modulus_of_continuity(
    phi: ScalarField, region: DomainBox, eps: float, resolution: int
) -> float:
    """Grid approximation of sup{|phi(z) - phi(w)| : z, w in region, |z-w| <= eps}.

    The grid has resolution nodes per real axis of the region's bounding box.  An eps
    below its largest spacing by more than 1e-12 relative raises
    InsufficientNodesError: neighbouring nodes along that axis are more than eps
    apart, and on a ball, whose axes share one spacing, the scan would read 0.  An eps
    within that slack below the spacing is taken as the spacing, so the pairs that an
    accepted eps compares are those of an eps of at least the spacing.

    With the nodes sorted by value, a block of them is paired only with the nodes
    whose values exceed the block's first by more than the best difference so far,
    the only pairs that can raise it; a block makes MODULUS_BLOCK_PAIRS pairs at most.
    """
    bounds = region.real_bounds()
    spacing = float(np.max(bounds[:, 1] - bounds[:, 0])) / (resolution - 1)
    if eps < spacing * (1.0 - 1e-12):
        raise InsufficientNodesError(
            f"insufficient nodes: eps {eps!r} is below the grid spacing {spacing!r} of "
            f"{resolution} nodes per axis")
    eps = max(eps, spacing)
    pts = region.grid_points(resolution)
    vals = phi(pts)
    if np.any(~np.isfinite(vals)):
        raise ContinuityRequiredError("requires continuity: -inf inside the region")
    order = np.argsort(vals, kind="stable")
    pts, vals = pts[order], vals[order]
    best = 0.0
    rows = max(1, MODULUS_BLOCK_PAIRS // vals.size)
    for start in range(0, vals.size, rows):
        lo = int(np.searchsorted(vals, vals[start] + best, side="right"))
        if lo == vals.size:
            break  # the values only grow from here, and best with them
        zs, vz = pts[start : start + rows], vals[start : start + rows]
        close = row_norm(zs[:, None, :] - pts[None, lo:, :]) <= eps
        best = max(best, float(np.where(close, vals[lo:] - vz[:, None], 0.0).max()))
    return best


def log_cprime(m: int, log_c_m: float, p: float, o: float, n: int) -> float:
    """log C'_m, C'_m = C'' C_m m^p e^{m O_{1/m}}, given log(C_m) >= 0 and the modulus
    O_{1/m}; the diagnostic log C'_m / m tends to 0 exactly when log C_m / m -> 0 and
    O_{1/m} -> 0.

    C'' is the explicit envelope 2^p (mu(B_1) + C' C) with
    C = 2^{p+2n} mu(B_1) and C' = sup e^{psi_0} over the unit ball (bounded by
    e^{R^2} (2R)^{2n} for its circumradius R = 1).
    """
    if log_c_m < 0.0:
        raise ValueError("constants C_m must be >= 1")
    log_c_prime = 1.0 + 2 * n * math.log(2.0)
    log_c_dprime = p * math.log(2.0) + float(np.logaddexp(
        log_ball_volume(n), log_c_prime + log_envelope_constant(p, n)))
    return log_c_dprime + log_c_m + p * math.log(m) + m * o
