"""Scalar weight fields, Levi forms, Hermitian (1,1)-forms.

Evaluators are vectorized: they take an (m, n) complex array of points and
return (m,) real values (gradients: (m, n) complex; Hessians: (m, n, n)
complex Hermitian).  Upper semi-continuous fields may return -inf on their
pole set.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import PoleInStencilError, SpecError, WeightOverflowError
from .geometry import DomainBox, abs_sq, as_point, as_points, row_norm, row_sq_norm, weighted_total

DEFAULT_FD_STEP = 1e-3
HERMITIAN_TOL = 1e-12
LEVI_TOL = 1e-9  # a Levi gap eigenvalue below -LEVI_TOL is a violation
REGION_RESOLUTION = 9  # nodes per real axis of the region grid a Levi gap is scanned on
VERDICT_SLACK = 1e-9  # the relative amount by which a side may exceed its bound (Scaled.at_most)


@dataclass(frozen=True)
class ScalarField:
    """A weight function on C^n.

    Analytic gradient/Hessian, when present, take precedence over finite
    differences.
    """

    name: str
    n: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, pts) -> np.ndarray:
        return self.evaluate(as_points(pts, self.n))

    def value_at(self, z) -> float:
        return float(self.evaluate(as_points(z, self.n))[0])


def _hermitian_deviation(g: np.ndarray) -> float:
    """max |g_jk - conj(g_kj)| over a (..., n, n) stack: the deviation is symmetric in
    (j, k), so j <= k is checked, one pair of (...) slices at a time."""
    n = g.shape[-1]
    return max(np.max(np.abs(g[..., j, k] - g[..., k, j].conj()), initial=0.0)
               for j in range(n) for k in range(j, n))


@dataclass(frozen=True)
class HermitianField:
    """Coefficient field of a continuous real (1,1)-form: z -> Hermitian (n, n)."""

    n: int
    evaluate: Callable[[np.ndarray], np.ndarray]

    def __call__(self, pts) -> np.ndarray:
        z = as_points(pts, self.n)
        g = np.asarray(self.evaluate(z), dtype=complex)
        dev = _hermitian_deviation(g)
        if dev > HERMITIAN_TOL:
            raise ValueError(f"coefficient matrix not Hermitian: deviation {dev:.3e}")
        return g


def zero_omega(n: int) -> HermitianField:
    return HermitianField(n, lambda z: np.zeros((z.shape[0], n, n), dtype=complex))


def constant_omega(c: float, n: int) -> HermitianField:
    """g(z) = c I, the coefficient field of c times the Euclidean form."""
    m = np.asarray(c * np.eye(n), dtype=complex)
    return HermitianField(n, lambda z: np.broadcast_to(m, (z.shape[0], n, n)).copy())


def scaled_sq_omega(c: float, n: int) -> HermitianField:
    """g(z) = c |z|^2 I, the coefficient field of c|z|^2 times the Euclidean form."""

    def ev(z):
        sq = row_sq_norm(z)
        return sq[:, None, None] * np.eye(n)[None, :, :] * c

    return HermitianField(n, ev)


def node_weights(expo, quad) -> tuple:
    """(exp(expo - shift) * quad, shift) with shift the largest finite exponent, for the
    node weight quad (one per node, or one scalar).  Sums against these weights carry
    e^{-shift}: their ratios are exact at any scale, and a Scaled keeps a sum with its
    shift.  A +inf exponent (a weight at -inf on its pole set) raises WeightOverflowError.
    """
    expo = np.asarray(expo, dtype=float)
    check_overflow(expo)
    shift = float(np.max(expo, where=np.isfinite(expo), initial=-np.inf))
    shift = shift if np.isfinite(shift) else 0.0
    return np.exp(expo - shift) * quad, shift


def check_overflow(expo: np.ndarray) -> None:
    """WeightOverflowError where an exponent -weight is +inf (a weight at -inf on its pole set)."""
    if np.any(expo == np.inf):
        raise WeightOverflowError("weight overflow: e^{-weight} is +inf at a node")


class Scaled:
    """A weighted sum total * e^shift, kept as its total and shift: its sign and log
    are exact at any shift, and value is the one conversion to a double."""

    __slots__ = ("total", "shift")

    def __init__(self, total, shift):
        self.total, self.shift = float(total), float(shift)

    sign = property(lambda self: (self.total > 0.0) - (self.total < 0.0))
    log_abs = property(lambda self: self.shift + math.log(abs(self.total)) if self.total else -math.inf)

    @property
    def value(self) -> float:
        """total * e^shift: by one factor where e^shift is a normal double, else by two half
        factors, which keep a double result where e^shift overflows or loses its bits
        below the normal range; where it is not a finite double, the infinity of its sign."""
        if not self.total:
            return 0.0
        try:
            factor = math.exp(self.shift)
        except OverflowError:
            factor = math.inf
        if sys.float_info.min <= factor < math.inf:
            return self.total * factor
        with np.errstate(over="ignore"):
            half = np.exp(np.float64(self.shift) / 2.0)
            return float(self.total * half * half)

    def at_most(self, other: "Scaled") -> bool:  # self <= (1 + VERDICT_SLACK) other, on the logs
        return self.log_abs <= other.log_abs + math.log1p(VERDICT_SLACK)

    def minus(self, other: "Scaled") -> float:
        """self.value - other.value, taken on the larger shift where either is not finite."""
        if math.isfinite(self.value) and math.isfinite(other.value):
            return self.value - other.value
        shift = max(self.shift, other.shift)
        return Scaled(self.total * math.exp(self.shift - shift)
                      - other.total * math.exp(other.shift - shift), shift).value


def weighted_sums(expo, quad, integrands) -> list:
    """The weighted_total of each integrand (node values, or one scalar) against
    node_weights(expo, quad): a Scaled on their one shift for each integrand, in order."""
    wq, shift = node_weights(expo, quad)
    return [Scaled(weighted_total(f, wq), shift) for f in integrands]


# ---------------------------------------------------------------------------
# builtin corpus
# ---------------------------------------------------------------------------


def log_levi(d: np.ndarray, u: np.ndarray) -> np.ndarray:
    """I/u - conj(d) d^T/u^2 at (m, n) points d, given u = |d|^2 + c for a constant
    c >= 0: the Levi form of log u, the one closed form of the log weights (log_abs
    takes half of it, log1p_sq takes d = z and c = 1, witness.build_psi_delta I plus n
    times it)."""
    eye = np.eye(d.shape[-1])[None, :, :]
    outer = np.conj(d)[:, :, None] * d[:, None, :]
    return eye / u[:, None, None] - outer / (u**2)[:, None, None]


def sq_norm(n: int) -> ScalarField:
    return ScalarField(
        "sq_norm", n,
        row_sq_norm,
        grad=lambda z: np.conj(z),
        hess=lambda z: np.broadcast_to(np.eye(n), (z.shape[0], n, n)).astype(complex),
    )


def neg_sq_norm(n: int) -> ScalarField:
    return ScalarField(
        "neg_sq_norm", n,
        lambda z: -row_sq_norm(z),
        grad=lambda z: -np.conj(z),
        hess=lambda z: -np.broadcast_to(np.eye(n), (z.shape[0], n, n)).astype(complex),
    )


def saddle(lam: float) -> ScalarField:
    """|z1|^2 - lam |z2|^2 on C^2."""
    h = np.diag([1.0, -lam]).astype(complex)

    def grad(z):
        g = np.conj(z).copy()
        g[:, 1] *= -lam
        return g

    return ScalarField(
        f"saddle:{lam:g}", 2,
        lambda z: abs_sq(z[:, 0]) - lam * abs_sq(z[:, 1]),
        grad=grad,
        hess=lambda z: np.broadcast_to(h, (z.shape[0], 2, 2)).copy(),
    )


def log_abs(a, n: int) -> ScalarField:
    """log |z - a| (Euclidean norm); pole at a, harmonic when n = 1."""
    av = as_point(a)
    if av.size != n:
        raise ValueError(f"pole location has dimension {av.size}, expected {n}")

    def ev(z):
        with np.errstate(divide="ignore"):
            return np.log(row_norm(z - av))

    def grad(z):
        d = z - av
        u = row_sq_norm(d)
        return 0.5 * np.conj(d) / u[:, None]

    def hess(z):
        d = z - av
        return 0.5 * log_levi(d, row_sq_norm(d))

    return ScalarField(f"log_abs:{av.tolist()}", n, ev, grad=grad, hess=hess)


def re_linear(a, n: int) -> ScalarField:
    """Re(sum_j a_j z_j); pluriharmonic."""
    av = as_point(a)
    return ScalarField(
        f"re_linear:{av.tolist()}", n,
        lambda z: np.real(z @ av),
        grad=lambda z: np.broadcast_to(av / 2.0, (z.shape[0], n)).copy(),
        hess=lambda z: np.zeros((z.shape[0], n, n), dtype=complex),
    )


def log1p_sq(n: int) -> ScalarField:
    """log(1 + |z|^2), strictly psh with bounded Levi form."""

    def grad(z):
        u = 1.0 + row_sq_norm(z)
        return np.conj(z) / u[:, None]

    return ScalarField(
        "log1p_sq", n,
        lambda z: np.log1p(row_sq_norm(z)),
        grad=grad, hess=lambda z: log_levi(z, 1.0 + row_sq_norm(z)),
    )


def max_log() -> ScalarField:
    """max(log|z1|, log|z2|) on C^2; psh, C2 off the tie set {|z1| = |z2|}.

    The closed-form Hessian is 0 wherever one branch strictly wins; callers
    doing finite differences must stay off the tie set and the axes.
    """

    def ev(z):
        with np.errstate(divide="ignore"):
            return np.maximum(np.log(np.abs(z[:, 0])), np.log(np.abs(z[:, 1])))

    def grad(z):
        first = np.abs(z[:, 0]) >= np.abs(z[:, 1])
        g = np.zeros_like(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            g[first, 0] = 0.5 / z[first, 0]
            g[~first, 1] = 0.5 / z[~first, 1]
        return g

    return ScalarField(
        "max_log", 2, ev, grad=grad,
        hess=lambda z: np.zeros((z.shape[0], 2, 2), dtype=complex),
    )


def cross() -> ScalarField:
    """Re(z1 conj(z2)) on C^2; indefinite Levi form [[0,1/2],[1/2,0]]."""
    h = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)

    def grad(z):
        g = np.empty_like(z)
        g[:, 0] = 0.5 * np.conj(z[:, 1])
        g[:, 1] = 0.5 * np.conj(z[:, 0])
        return g

    return ScalarField(
        "cross", 2,
        lambda z: np.real(z[:, 0] * np.conj(z[:, 1])),
        grad=grad,
        hess=lambda z: np.broadcast_to(h, (z.shape[0], 2, 2)).copy(),
    )


def neg_gauss(n: int) -> ScalarField:
    """-exp(-|z|^2); Levi form e^{-|z|^2}(I - conj(z) z^T), indefinite for |z| > 1."""

    def ev(z):
        return -np.exp(-row_sq_norm(z))

    def grad(z):
        e = np.exp(-row_sq_norm(z))
        return e[:, None] * np.conj(z)

    def hess(z):
        e = np.exp(-row_sq_norm(z))
        eye = np.eye(n)[None, :, :]
        outer = np.conj(z)[:, :, None] * z[:, None, :]
        return e[:, None, None] * (eye - outer)

    return ScalarField("neg_gauss", n, ev, grad=grad, hess=hess)


def finite(param) -> float:
    """A numeric spec parameter as a float, which must be finite: JSON NaN and Infinity
    are refused."""
    x = float(param)
    if not np.isfinite(x):
        raise ValueError(f"{param!r} is not a finite number")
    return x


def number(default):
    """Parameter parser of an id that takes a finite number: default when it has none."""
    return lambda param, n: default if param is None else finite(param)


def point(default):
    """Parameter parser of an id that takes a point of C^n: default(n) when it has none."""
    return lambda param, n: default(n) if param is None else parse_point(param, n)


def origin(n: int) -> np.ndarray:
    return np.zeros(n, dtype=complex)


def first_axis(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)[0]


# id -> (parameter parser, builder).  A parser maps the JSON parameter (None
# without one) and n to the builder's parameter; an id whose parser is None
# takes no parameter and its builder takes n alone, else (parameter, n).
FIELDS = {
    "sq_norm": (None, sq_norm),
    "neg_sq_norm": (None, neg_sq_norm),
    "saddle": (number(2.0), lambda lam, n: saddle(lam)),
    "log_abs": (point(origin), log_abs),
    "re_linear": (point(first_axis), re_linear),
    "log1p_sq": (None, log1p_sq),
    "max_log": (None, lambda n: max_log()),
    "cross": (None, lambda n: cross()),
    "neg_gauss": (None, neg_gauss),
}
OMEGAS = {
    "zero": (None, zero_omega),
    "const": (number(1.0), constant_omega),
    "sq": (number(1.0), scaled_sq_omega),
}


def resolve(table, kind: str, spec: str, n):
    """The object a spec "id" or "id:<JSON>" names in a table, for dimension n (None:
    a spec without one).  Every failure is a SpecError: an unknown id, a parameter
    for an id that takes none, a parameter that is not JSON or that the id's parser
    or builder refuses (TypeError, ValueError, or OverflowError for a JSON integer past
    the double range), and an object of another dimension."""
    base, colon, raw = spec.partition(":")
    if base not in table:
        raise SpecError(f"unknown {kind} id {base!r}; known ids: {', '.join(table)}")
    parse, build = table[base]
    if parse is None:
        if colon:
            raise SpecError(f"{kind} id {base!r} takes no parameter")
        out = build(n)
    else:
        try:
            out = build(parse(json.loads(raw) if colon else None, n), n)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecError(f"bad parameter {raw!r} ({exc})") from exc
    if n is not None and out.n != n:
        raise SpecError(f"{kind} id {base!r} lives in dim {out.n}, not dim {n}")
    return out


def get_field(spec: str, n: int) -> ScalarField:
    """Resolve a corpus id like "saddle:2" or "log_abs:[[1,0]]" to a field."""
    return resolve(FIELDS, "field", spec, n)


def get_omega(spec: str, n: int) -> HermitianField:
    return resolve(OMEGAS, "omega", spec, n)


def parse_point(param, n: int) -> np.ndarray:
    """A point of C^n from JSON: an array of n [re, im] pairs, all finite."""
    arr = np.asarray(param, dtype=float)
    if arr.ndim == 1 and arr.size == 2:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("point JSON must be an array of [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point has non-finite components")
    out = arr[:, 0] + 1j * arr[:, 1]
    if out.size != n:
        raise ValueError(f"parameter has dimension {out.size}, expected {n}")
    return out


# ---------------------------------------------------------------------------
# Wirtinger calculus by central differences
# ---------------------------------------------------------------------------


def levi_form(phi: ScalarField, pts) -> np.ndarray:
    """(m, n, n) mixed Wirtinger Hessians (d^2 phi / dz_j dzbar_k) at (m, n) points: the
    declared Hessian, which must be finite (PoleInStencilError, as for a stencil, at a
    pole) and Hermitian, symmetrized to (M + M^H)/2 so that it is exactly Hermitian, or
    for a field without one fd_levi_form at DEFAULT_FD_STEP."""
    if phi.hess is None:
        return fd_levi_form(phi, pts, DEFAULT_FD_STEP)
    z = as_points(pts, phi.n)
    with np.errstate(divide="ignore", invalid="ignore"):  # read by the check below
        m = np.asarray(phi.hess(z), dtype=complex)
    if not np.all(np.isfinite(m)):
        raise PoleInStencilError(f"pole in the declared Hessian of {phi.name!r}")
    dev = _hermitian_deviation(m)
    if dev > HERMITIAN_TOL:
        raise ValueError(f"declared Hessian of {phi.name!r} is not Hermitian: deviation {dev:.3e}")
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def fd_levi_form(phi: ScalarField, pts, h: float) -> np.ndarray:
    """levi_form by finite differences at step h, whatever Hessian phi declares (criterion
    1's oracle): every stencil point of every node in one call, each node at the step
    h (1 + |z|), each mixed entry from the four real cross-stencils in (x_j, y_j, x_k,
    y_k), and the result symmetrized to (M + M^H)/2."""
    z = as_points(pts, phi.n)
    n = phi.n
    he = h * (1.0 + row_norm(z))
    eye = np.eye(n)
    # (m, 1, n) real and imaginary steps along each axis
    steps = [(he[:, None, None] * eye[j], (1j * he)[:, None, None] * eye[j]) for j in range(n)]
    zc = z[:, None, :]

    parts = [zc]
    for j in range(n):
        for step in steps[j]:
            parts += [zc + step, zc - step]
    for j in range(n):
        for k in range(j + 1, n):
            for a in steps[j]:
                for b in steps[k]:
                    parts += [zc + a + b, zc + a - b, zc - a + b, zc - a - b]
    stencil = np.concatenate(parts, axis=1).reshape(-1, n)
    flat = phi.evaluate(stencil)
    if not np.all(np.isfinite(flat)):
        raise PoleInStencilError("pole in stencil")
    vals = flat.reshape(z.shape[0], -1).T  # vals[p] is stencil point p of every node

    f0 = vals[0]
    m = np.zeros((z.shape[0], n, n), dtype=complex)
    pos = 1
    for j in range(n):
        fxp, fxm, fyp, fym = vals[pos : pos + 4]
        pos += 4
        m[:, j, j] = (fxp + fxm + fyp + fym - 4.0 * f0) / (4.0 * he * he)
    for j in range(n):
        for k in range(j + 1, n):
            cross_d = []
            for _ in range(4):
                fpp, fpm, fmp, fmm = vals[pos : pos + 4]
                pos += 4
                cross_d.append((fpp - fpm - fmp + fmm) / (4.0 * he * he))
            # order: (x_j,x_k), (x_j,y_k), (y_j,x_k), (y_j,y_k)
            m[:, j, k] = (cross_d[0] + 1j * cross_d[1] - 1j * cross_d[2] + cross_d[3]) / 4.0
            m[:, k, j] = np.conj(m[:, j, k])
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def levi_gap(phi: ScalarField, omega: HermitianField, pts) -> tuple:
    """The Levi gap levi_form(phi) - omega at (m, n) points and its (m,) smallest eigenvalues."""
    gap = levi_form(phi, pts) - omega(pts)
    return gap, np.linalg.eigvalsh(gap)[:, 0]


def region_nodes(phi: ScalarField, region: DomainBox, resolution: int) -> np.ndarray:
    """The grid points of a region scan; raises when there are none or phi has a pole at one."""
    pts = region.grid_points(resolution)
    if pts.shape[0] == 0:
        raise ValueError("region grid is empty; increase resolution")
    vals = phi(pts)
    if not np.all(np.isfinite(vals)):
        raise PoleInStencilError("pole in region")
    return pts


@dataclass(frozen=True)
class LowerBoundVerdict:
    z0: Optional[np.ndarray]
    xi: Optional[np.ndarray]
    lambda_min: float

    holds = property(lambda self: self.z0 is None)  # no node below -tol, so no worst node
    c = property(lambda self: 0.0 if self.holds else -self.lambda_min)  # the violation depth


def check_lower_bound(
    phi: ScalarField,
    omega: HermitianField,
    region: DomainBox,
    resolution: int,
    tol: float,
) -> LowerBoundVerdict:
    """Grid scan of the smallest eigenvalue of levi_form(phi) - g over a region.

    "holds" means lambda_min >= -tol at every node; otherwise the worst node,
    its eigenvector, and c = -lambda_min are returned.
    """
    pts = region_nodes(phi, region, resolution)
    gap, eigs = levi_gap(phi, omega, pts)
    worst = int(np.argmin(eigs))
    lam_min = float(eigs[worst])
    if lam_min >= -tol:
        return LowerBoundVerdict(None, None, lam_min)
    _, v = np.linalg.eigh(gap[worst])
    return LowerBoundVerdict(pts[worst], v[:, 0], lam_min)
