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

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContinuityRequiredError, MetricNotPositiveError
from .fields import (
    HermitianField, ScalarField, check_lower_bound, levi_on_points, unshift, weight_exp,
)
from .bochner import FormField01, GridDiscretization, gradient_energy, levi_on_grid, make_grid
from .geometry import DomainBox, as_point, as_points, ball_volume


# ---------------------------------------------------------------------------
# cutoff profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutoffProfile:
    """Monotone C^1 profile: 1 below flat_top, 0 above support_end.

    The transition is the cubic smoothstep, whose maximal slope on
    [flat_top, support_end] is exactly 1.5 / (support_end - flat_top).
    """

    flat_top: float
    support_end: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        u = np.clip((t - self.flat_top) / (self.support_end - self.flat_top), 0.0, 1.0)
        return 1.0 - (3.0 * u * u - 2.0 * u * u * u)

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        width = self.support_end - self.flat_top
        u = (t - self.flat_top) / width
        inside = (u > 0.0) & (u < 1.0)
        out = np.zeros_like(u)
        out[inside] = -(6.0 * u[inside] - 6.0 * u[inside] ** 2) / width
        return out


def make_cutoff() -> CutoffProfile:
    """The profile with flat top at 1/4 and support ending at 1.

    Its slope satisfies sup|chi'| <= 2: the cubic smoothstep on [1/4, 1]
    attains exactly (3/2)/(3/4) = 2.
    """
    return CutoffProfile(0.25, 1.0)


# ---------------------------------------------------------------------------
# sharp-estimate witness objects
# ---------------------------------------------------------------------------


def build_witness_form(z0, xi, r: float, chi: CutoffProfile):
    """nu(z) = <xi, conj(z - z0)> chi(|z-z0|^2/r^2) and its dbar in closed form.

    f = dbar(nu) has f_j = xi_j chi + <xi, conj(z-z0)> chi'(t) (z_j - z0_j)/r^2,
    equals sum_j xi_j dzbar_j on B(z0, r/2), and is supported in B(z0, r).
    """
    z0 = as_point(z0)
    xi = as_point(xi)
    if abs(np.linalg.norm(xi) - 1.0) > 1e-10:
        raise ValueError("direction xi must be a unit vector")
    n = z0.size
    rr = r * r

    def pair(z):
        return (z - z0) @ np.conj(xi)  # = sum_j xi_j conj(z_j - z0_j), conjugated

    # nu is complex-valued; expose it as a plain evaluator rather than a
    # ScalarField (weight fields are real, nu is an amplitude)
    def nu_values(z):
        z = as_points(z, n)
        t = np.sum(np.abs(z - z0) ** 2, axis=-1) / rr
        return np.conj(pair(z)) * chi(t)

    def component(j):
        def comp(z):
            d = z - z0
            t = np.sum(np.abs(d) ** 2, axis=-1) / rr
            return xi[j] * chi(t) + np.conj(pair(z)) * chi.deriv(t) * d[:, j] / rr

        return comp

    support = DomainBox("ball", z0, np.array([r]))
    f = FormField01("dbar_nu", n, tuple(component(j) for j in range(n)), support)
    return nu_values, f


def build_psi_s(z0, r: float, s: float) -> ScalarField:
    """psi_s(z) = s (|z - z0|^2 - r^2/4): Hessian sI, nonpositive on B(z0, r/2)."""
    if s <= 0.0:
        raise ValueError("s must be positive")
    z0 = as_point(z0)
    n = z0.size

    return ScalarField(
        f"psi_s:{s:g}", n,
        lambda z: s * (np.sum(np.abs(z - z0) ** 2, axis=-1) - r * r / 4.0),
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
    lam_min = float(np.min(np.linalg.eigvalsh(b)))
    if lam_min <= 1e-12:
        raise MetricNotPositiveError(
            f"metric not positive: smallest eigenvalue {lam_min:.3e}"
        )
    # alpha^T = f^T B^{-1}  <=>  B^T alpha = f
    if b.ndim == 2:
        n = b.shape[0]
        return np.linalg.solve(b.T, f.reshape(-1, n).T).T.reshape(f.shape)
    return np.linalg.solve(np.swapaxes(b, -1, -2), f[..., None])[..., 0]


def metric_quadratic(metric, vec) -> float:
    """sum_{j,k} B_jk v_j conj(v_k) (real for Hermitian B)."""
    v = np.asarray(vec, dtype=complex)
    return float(np.real(np.dot(v, np.asarray(metric) @ np.conj(v))))


def form_norm_sq(metric, f_coeffs) -> float:
    """|f|^2_B = sum_{j,k} (B^{-1})_jk f_j conj(f_k) via a linear solve."""
    f = np.asarray(f_coeffs, dtype=complex)
    return float(np.real(np.dot(f, np.linalg.solve(np.asarray(metric), np.conj(f)))))


def estimate_functional_E(
    alpha,
    phi: ScalarField,
    psi: ScalarField,
    omega: HermitianField,
    grid: GridDiscretization,
) -> float:
    """The sign functional: curvature-gap energy plus gradient energy of alpha.

    Nonnegative whenever levi(phi) - g is positive semidefinite on the support
    of alpha; a negative value falsifies the sharp estimate property for
    (phi, omega).
    """
    if isinstance(alpha, FormField01):
        # single first-derivative stencils only: one stencil width of margin
        grid.check_support_margin(alpha.support, 1)
        av = alpha.evaluate(grid.points)
    else:
        av = np.asarray(alpha, dtype=complex)
    pts = grid.points
    # omega before the Levi forms, so that the temporaries of its Hermitian
    # check are gone before those exist; the gap goes before the stencils run
    g = omega(pts)
    quad = np.real(np.einsum("mjk,jm,km->m", levi_on_grid(phi, grid) - g, av, np.conj(av)))
    del g
    grad_sq = gradient_energy(av, grid)
    weight, shift = weight_exp(-(phi(pts) + psi(pts)))
    return unshift(float(np.dot(quad + grad_sq, weight * grid.weights)), shift)


@dataclass(frozen=True)
class WitnessCertificate:
    """A concrete falsification of the sharp estimate property.

    c is the Levi-gap depth at the worst center; the selection radius r keeps
    the sampled gap below -c/2 throughout B(z0, r); E is the (negative) value
    of the sign functional at scale s on the recorded grid, and E_doubled its
    value on the grid with twice as many nodes per axis.
    """

    z0: np.ndarray
    xi: np.ndarray
    r: float
    c: float
    s: float
    E: float
    E_doubled: float
    grid_nodes: int

    def as_dict(self) -> dict:
        return {
            "z0": [[float(v.real), float(v.imag)] for v in self.z0],
            "xi": [[float(v.real), float(v.imag)] for v in self.xi],
            "r": self.r,
            "c": self.c,
            "s": self.s,
            "E": self.E,
            "E_doubled": self.E_doubled,
            "grid_nodes": self.grid_nodes,
        }


DEFAULT_S_SCHEDULE = (10.0, 100.0, 1000.0, 10000.0)
DEFAULT_E_GRID = {1: 96, 2: 16}


def scan_sharp_witness(
    phi: ScalarField,
    omega: HermitianField,
    region: DomainBox,
    s_schedule: Sequence[float] = DEFAULT_S_SCHEDULE,
    grid_nodes: Optional[int] = None,
    lb_resolution: int = 9,
) -> Optional[WitnessCertificate]:
    """Search for a sign-functional certificate against the sharp estimate.

    Runs the Levi lower-bound scan first; on a violation at (z0, xi, c) it
    picks the largest dyadic radius with sampled gap < -c/2 on B(z0, r),
    builds the localized form, and sweeps the s-schedule until E < 0 on the
    grid and on the doubled grid.  The result is None for weights whose Levi
    form dominates omega on the region, and also when no s of the schedule
    certifies a violation.
    """
    verdict = check_lower_bound(phi, omega, region, resolution=lb_resolution)
    if verdict.holds:
        return None
    z0, xi, c = _select_center(phi, omega, region, lb_resolution, verdict.c)
    n = phi.n
    if grid_nodes is None:
        grid_nodes = DEFAULT_E_GRID.get(n, 16)

    r = _select_radius(phi, omega, z0, xi, c, region)
    _, f = build_witness_form(z0, xi, r, make_cutoff())

    def energy(grid, psi, s):
        # nodewise alpha^s = f (sI + g)^{-1}; equals f/s when omega vanishes
        alpha = alpha_from_f(f.evaluate(grid.points).T, _plus_s(omega(grid.points), s)).T
        return estimate_functional_E(alpha, phi, psi, omega, grid)

    grid = _witness_grid(z0, r, grid_nodes)
    for s in s_schedule:
        psi = build_psi_s(z0, r, float(s))
        value = energy(grid, psi, s)
        if value < 0.0:
            value_doubled = energy(_witness_grid(z0, r, 2 * grid_nodes), psi, s)
            if value_doubled < 0.0:
                return WitnessCertificate(z0, xi, r, c, float(s), value, value_doubled, grid_nodes)
    return None


def _plus_s(g, s: float) -> np.ndarray:
    """The metrics sI + g at the nodes: one (n, n) matrix when g is the same at
    every node (a constant omega), so that alpha_from_f makes a single solve."""
    if np.all(g == g[:1]):
        g = g[0]
    return g + s * np.eye(g.shape[-1])


def _select_center(phi, omega, region, resolution, c_worst):
    """Most interior grid node whose Levi gap is within 5% of the worst one.

    Ties in the gap depth are common (constant-curvature weights); picking the
    node farthest from the region boundary leaves room for the witness ball.
    """
    pts = region.grid_points(resolution)
    gap = levi_on_points(phi, pts) - omega(pts)
    eigs = np.linalg.eigvalsh(gap)[:, 0]
    near_worst = np.flatnonzero(eigs <= -0.95 * c_worst)
    depths = np.array([region.inradius_from(pts[i]) for i in near_worst])
    pick = near_worst[int(np.argmax(depths))]
    _, v = np.linalg.eigh(gap[pick])
    return pts[pick], v[:, 0], float(-eigs[pick])


def _witness_grid(z0, r: float, nodes: int) -> GridDiscretization:
    # box with enough margin for the FD stencil around the support ball
    pad = max(0.15 * r, 10.0 * r / max(nodes - 1, 1))
    return make_grid(DomainBox("ball", z0, np.array([r + pad])), nodes)


def _select_radius(phi, omega, z0, xi, c, region, ladder_steps: int = 6) -> float:
    """Largest dyadic radius with sampled Levi gap < -c/2 throughout the ball."""
    r_max = max(region.inradius_from(z0), 1e-3)
    if phi.domain is not None:
        r_max = min(r_max, phi.domain.inradius_from(z0))
    for k in range(ladder_steps):
        r = r_max / (2.0**k)
        ball = DomainBox("ball", z0, np.array([r]))
        pts = ball.grid_points(7)
        eigs = np.linalg.eigvalsh(levi_on_points(phi, pts) - omega(pts))[:, 0]
        if np.max(eigs) < -c / 2.0:
            return r
    return r_max / (2.0 ** (ladder_steps - 1))


# ---------------------------------------------------------------------------
# coarse-estimate chain objects
# ---------------------------------------------------------------------------


def build_alpha_eps(w, eps: float, chi: CutoffProfile) -> FormField01:
    """alpha_eps = chi'(|z-w|^2/eps^2) sum_j ((z_j - w_j)/eps^2) dzbar_j.

    Supported in the annulus eps/2 <= |z - w| <= eps; equals
    dbar of chi(|z-w|^2/eps^2).
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    w = as_point(w)
    n = w.size
    ee = eps * eps

    def component(j):
        def comp(z):
            d = z - w
            t = np.sum(np.abs(d) ** 2, axis=-1) / ee
            return chi.deriv(t) * d[:, j] / ee

        return comp

    support = DomainBox("ball", w, np.array([eps]))
    return FormField01("alpha_eps", n, tuple(component(j) for j in range(n)), support)


def build_psi_delta(w, delta: float, n: int) -> ScalarField:
    """psi_delta = |z|^2 + n log(|z - w|^2 + delta^2).

    For delta > 0 this is C^2 with a closed-form Hessian; delta = 0 gives the
    usc limit with a logarithmic pole at w and psi_0 >= 2n log|z - w| + |z|^2.
    """
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    w = as_point(w)
    dd = delta * delta

    def ev(z):
        u = np.sum(np.abs(z - w) ** 2, axis=-1) + dd
        with np.errstate(divide="ignore"):
            return np.sum(np.abs(z) ** 2, axis=-1) + n * np.log(u)

    if delta == 0.0:
        return ScalarField(
            "psi_delta:0", n, ev,
            pole=lambda z: np.linalg.norm(z - w, axis=-1) == 0.0,
            smoothness="usc",
        )

    def grad(z):
        d = z - w
        u = np.sum(np.abs(d) ** 2, axis=-1) + dd
        return np.conj(z) + n * np.conj(d) / u[:, None]

    return ScalarField(
        f"psi_delta:{delta:g}", n, ev, grad=grad,
        hess=lambda z: _psi_delta_hess(z, w, delta, n),
    )


def _psi_delta_hess(z, w, delta: float, n: int) -> np.ndarray:
    """Levi form of psi_delta: I + n (I/u - conj(d) d^T/u^2), d = z - w, u = |d|^2 + delta^2.

    At delta = 0 this is the metric of the usc limit off its pole.
    """
    d = z - w
    u = np.sum(np.abs(d) ** 2, axis=-1) + delta * delta
    eye = np.eye(n)[None, :, :]
    outer = np.conj(d)[:, :, None] * d[:, None, :]
    return eye + n * (eye / u[:, None, None] - outer / (u**2)[:, None, None])


def _psi_delta_norm_sq(f_values, z, w, delta: float, n: int) -> np.ndarray:
    """|f|^2_H = sum_{j,k} (H^{-1})_jk f_j conj(f_k) for the Levi form H of psi_delta.

    f_values is (n, m) at the m points z, none of them the pole.  H = a I -
    b conj(d) d^T with a = 1 + n/u and b = n/u^2, so by Sherman-Morrison

        |f|^2_H = |f|^2 / a + b |sum_j f_j conj(d_j)|^2 / (a (a - b |d|^2)),

    where a - b |d|^2 = 1 + n delta^2 / u^2 >= 1: both terms are nonnegative.
    """
    d = z - w
    u = np.sum(np.abs(d) ** 2, axis=-1) + delta * delta
    a = 1.0 + n / u
    b = n / u**2
    along_d = np.abs(np.sum(f_values * np.conj(d).T, axis=0)) ** 2
    return (
        np.sum(np.abs(f_values) ** 2, axis=0) / a
        + b * along_d / (a * (1.0 + n * delta * delta / u**2))
    )


@dataclass(frozen=True)
class CoarseChainReport:
    m: int
    p: float
    eps: float
    delta: float
    w: np.ndarray
    rhs_integral: float
    bound: float
    envelope_constant: float  # C = 2^{p+2n} mu(B_1)
    inf_phi: float

    @property
    def verified(self) -> bool:
        return self.rhs_integral <= (1.0 + 1e-9) * self.bound


def ball_infimum(phi: ScalarField, w, eps: float, samples: int = 20000, seed: int = 0) -> float:
    """Approximate inf over the closed ball B(w, eps) by dense deterministic sampling."""
    w = as_point(w)
    n = w.size
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, 2 * n))
    dirs = g[:, 0:n] + 1j * g[:, n:]
    nv = np.linalg.norm(dirs, axis=1, keepdims=True)
    nv[nv == 0.0] = 1.0
    radii = eps * rng.uniform(0.0, 1.0, size=samples) ** (1.0 / (2 * n))
    pts = w[None, :] + dirs / nv * radii[:, None]
    # include the center and a shell of boundary points
    shell = w[None, :] + dirs[:2048] / nv[:2048] * eps
    pts = np.concatenate([pts, shell, w[None, :]])
    vals = phi(pts)
    return float(np.min(vals))


def coarse_rhs_bound(
    phi: ScalarField,
    m: int,
    p: float,
    w,
    eps: float,
    delta: float,
    log_c_m: float,
    grid_nodes: int = 64,
) -> CoarseChainReport:
    """Numerically verify C_m int |alpha_eps|^p_{metric} e^{-(m phi + psi_delta)}
    <= C C_m e^{-m inf phi} / eps^p with C = 2^{p+2n} mu(B_1), given log(C_m).
    """
    w = as_point(w)
    n = w.size
    alpha = build_alpha_eps(w, eps, make_cutoff())
    psi = build_psi_delta(w, delta, n)

    grid = _annulus_grid(w, eps, grid_nodes)
    spacing = float(np.max(grid.spacing))
    if spacing > eps / 16.0 + 1e-15:
        raise ValueError(
            f"grid does not resolve the annulus: spacing {spacing:.3e} > eps/16"
        )
    pts = grid.points
    av = alpha.evaluate(pts)
    on_support = np.sum(np.abs(av) ** 2, axis=0) > 0.0
    # exclude the pole node if it happens to sit on the grid (delta = 0)
    at_pole = psi.is_pole(pts)
    use = on_support & ~at_pole

    norm_sq = _psi_delta_norm_sq(av[:, use], pts[use], w, delta, n)
    weight, shift = weight_exp(-(m * phi(pts[use]) + psi(pts[use])))
    integrand = norm_sq ** (p / 2.0) * weight
    rhs = unshift(float(np.dot(integrand, grid.weights[use])), shift + log_c_m)

    inf_phi = ball_infimum(phi, w, eps)
    envelope = 2.0 ** (p + 2 * n) * ball_volume(n)
    bound = unshift(envelope / eps**p, log_c_m - m * inf_phi)
    return CoarseChainReport(m, p, eps, delta, w, rhs, bound, envelope, inf_phi)


def _annulus_grid(w, eps: float, nodes: int) -> GridDiscretization:
    pad = 0.25 * eps
    return make_grid(DomainBox("ball", w, np.array([eps + pad])), nodes)


def modulus_of_continuity(
    phi: ScalarField, region: DomainBox, eps: float, resolution: int = 33
) -> float:
    """Grid approximation of sup{|phi(z) - phi(w)| : z, w in region, |z-w| <= eps}."""
    if phi.smoothness == "usc":
        raise ContinuityRequiredError("requires continuity")
    pts = region.grid_points(resolution)
    vals = phi(pts)
    if np.any(~np.isfinite(vals)):
        raise ContinuityRequiredError("requires continuity: -inf inside the region")
    best = 0.0
    chunk = 2048
    for start in range(0, pts.shape[0], chunk):
        zs = pts[start : start + chunk]
        vz = vals[start : start + chunk]
        dist = np.linalg.norm(zs[:, None, :] - pts[None, :, :], axis=-1)
        close = dist <= eps
        diff = np.abs(vz[:, None] - vals[None, :])
        diff[~close] = 0.0
        best = max(best, float(diff.max()))
    return best


def coarse_constant_growth(
    m_values: Sequence[int],
    log_c_m_values: Sequence[float],
    p: float,
    o_evaluator: Callable[[float], float],
    n: int = 1,
    region_radius: float = 1.0,
):
    """log C'_m, C'_m = C'' C_m m^p e^{m O_{1/m}}, and the diagnostic log C'_m / m,
    given log(C_m).

    C'' is the explicit envelope 2^p (mu(B_1) + C' C) with
    C = 2^{p+2n} mu(B_1) and C' = sup e^{psi_0} over the region (bounded by
    e^{R^2} (2R)^{2n} for circumradius R); the diagnostic tends to 0 exactly
    when log C_m / m -> 0 and the modulus O_{1/m} -> 0.
    """
    m_arr = np.asarray(list(m_values), dtype=float)
    log_c_arr = np.asarray(list(log_c_m_values), dtype=float)
    if np.any(log_c_arr < 0.0):
        raise ValueError("constants C_m must be >= 1")
    mu1 = ball_volume(n)
    c_env = 2.0 ** (p + 2 * n) * mu1
    c_prime = math.exp(region_radius**2) * (2.0 * region_radius) ** (2 * n)
    c_dprime = 2.0**p * (mu1 + c_prime * c_env)
    o_vals = np.array([float(o_evaluator(1.0 / m)) for m in m_arr])
    log_cprime_m = math.log(c_dprime) + log_c_arr + p * np.log(m_arr) + m_arr * o_vals
    diagnostics = log_cprime_m / m_arr
    return log_cprime_m, diagnostics
