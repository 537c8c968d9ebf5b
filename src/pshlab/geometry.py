"""Domains, holomorphic cylinders, unitary frames, and cylinder quadrature.

Points of C^n are numpy arrays of shape (n,) with dtype complex128; batches of
points have shape (m, n).  A holomorphic cylinder is the set z0 + A(P_{r,s})
where A is unitary and P_{r,s} = {|w1| < r, |w2|^2 + ... + |wn|^2 < s^2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InsufficientNodesError

UNITARITY_TOL = 1e-12

# Default node budgets keep every scan well under the runtime budgets.
DEFAULT_BUDGET = {1: 4096, 2: 65536}

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def as_point(coords) -> np.ndarray:
    """Validate and return a point of C^n as a complex (n,) array."""
    z = np.atleast_1d(np.asarray(coords, dtype=complex))
    if z.ndim != 1:
        raise ValueError(f"point must be one-dimensional, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("point has non-finite components")
    return z


def as_points(pts, n: int) -> np.ndarray:
    """Return points as an (m, n) complex array."""
    z = np.asarray(pts, dtype=complex)
    if z.ndim == 1:
        z = z[None, :]
    if z.shape[-1] != n:
        raise ValueError(f"expected points in C^{n}, got shape {z.shape}")
    return z


def ball_volume(n: int) -> float:
    """Lebesgue volume of the unit ball of C^n = R^{2n}: pi^n / n!."""
    return math.pi ** n / math.factorial(n)


@dataclass(frozen=True)
class DomainBox:
    """A closed-form region of C^n: a Euclidean ball, polydisc, or real box.

    extents: ball -> (radius,); polydisc -> n radii; box -> 2n real half-widths
    ordered (x1, y1, ..., xn, yn).
    """

    kind: str
    center: np.ndarray
    extents: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        ext = np.atleast_1d(np.asarray(self.extents, dtype=float))
        if np.any(ext <= 0.0):
            raise ValueError("extents must be positive")
        n = self.center.size
        expected = {"ball": 1, "polydisc": n, "box": 2 * n}
        if self.kind not in expected:
            raise ValueError(f"unknown region kind {self.kind!r}")
        if ext.size != expected[self.kind]:
            raise ValueError(
                f"{self.kind} region in C^{n} needs {expected[self.kind]} extents, got {ext.size}"
            )
        object.__setattr__(self, "extents", ext)

    @property
    def n(self) -> int:
        return self.center.size

    def contains(self, pts) -> np.ndarray:
        """Exact membership test, vectorized over points."""
        z = as_points(pts, self.n)
        d = z - self.center
        if self.kind == "ball":
            return np.linalg.norm(d, axis=-1) <= self.extents[0]
        if self.kind == "polydisc":
            return np.all(np.abs(d) <= self.extents, axis=-1)
        hw = self.extents.reshape(self.n, 2)
        ok_x = np.abs(d.real) <= hw[:, 0]
        ok_y = np.abs(d.imag) <= hw[:, 1]
        return np.all(ok_x & ok_y, axis=-1)

    def inradius_from(self, z) -> float:
        """Largest t such that the Euclidean ball B(z, t) stays inside the region."""
        z = as_point(z)
        d = z - self.center
        if self.kind == "ball":
            return float(self.extents[0] - np.linalg.norm(d))
        if self.kind == "polydisc":
            return float(np.min(self.extents - np.abs(d)))
        hw = self.extents.reshape(self.n, 2)
        gx = hw[:, 0] - np.abs(d.real)
        gy = hw[:, 1] - np.abs(d.imag)
        return float(min(gx.min(), gy.min()))

    def real_bounds(self) -> np.ndarray:
        """Bounding real box as a (2n, 2) array of (lo, hi) per real axis."""
        if self.kind == "ball":
            hw = np.full(2 * self.n, self.extents[0])
        elif self.kind == "polydisc":
            hw = np.repeat(self.extents, 2)
        else:
            hw = self.extents
        c = np.empty(2 * self.n)
        c[0::2] = self.center.real
        c[1::2] = self.center.imag
        return np.stack([c - hw, c + hw], axis=1)

    def grid_points(self, per_axis: int) -> np.ndarray:
        """Tensor grid over the bounding box, filtered to region members."""
        bounds = self.real_bounds()
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in bounds]
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = np.stack([m.ravel() for m in mesh], axis=1)
        pts = flat[:, 0::2] + 1j * flat[:, 1::2]
        return pts[self.contains(pts)]

    def sample_uniform(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Uniform points in the region by rejection from the bounding box."""
        bounds = self.real_bounds()
        out = np.empty((count, self.n), dtype=complex)
        got = 0
        while got < count:
            u = rng.uniform(bounds[:, 0], bounds[:, 1], size=(2 * count, 2 * self.n))
            pts = u[:, 0::2] + 1j * u[:, 1::2]
            pts = pts[self.contains(pts)]
            take = min(count - got, pts.shape[0])
            out[got : got + take] = pts[:take]
            got += take
        return out


def unit_ball(n: int, radius: float = 1.0, center=None) -> DomainBox:
    c = np.zeros(n, dtype=complex) if center is None else as_point(center)
    return DomainBox("ball", c, np.array([radius]))


def check_unitary(a: np.ndarray, tol: float = UNITARITY_TOL) -> float:
    """Return the max-entry deviation of A^H A from the identity."""
    a = np.asarray(a, dtype=complex)
    dev = np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0])))
    if dev > tol:
        raise ValueError(f"frame is not unitary: max |A^H A - I| = {dev:.3e}")
    return float(dev)


@dataclass(frozen=True)
class HolomorphicCylinder:
    """z0 + A(P_{r,s}) for a unitary frame A; s is ignored when n = 1."""

    center: np.ndarray
    frame: np.ndarray
    r: float
    s: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        a = np.asarray(self.frame, dtype=complex)
        if a.shape != (self.n, self.n):
            raise ValueError(f"frame must be {self.n}x{self.n}, got {a.shape}")
        check_unitary(a)
        object.__setattr__(self, "frame", a)
        if not (self.r > 0.0 and self.s > 0.0):
            raise ValueError("cylinder radii must be positive")

    @property
    def n(self) -> int:
        return self.center.size

    @property
    def volume(self) -> float:
        return cylinder_volume(self)

    @property
    def bounding_radius(self) -> float:
        """Radius of the smallest ball around the center containing the cylinder."""
        if self.n == 1:
            return self.r
        return math.sqrt(self.r**2 + self.s**2)

    def contains(self, pts, rtol: float = 1e-12) -> np.ndarray:
        z = as_points(pts, self.n)
        w = (z - self.center) @ self.frame.conj()
        ok = np.abs(w[:, 0]) <= self.r * (1.0 + rtol)
        if self.n > 1:
            ok &= np.linalg.norm(w[:, 1:], axis=1) <= self.s * (1.0 + rtol)
        return ok


def cylinder_volume(cyl: HolomorphicCylinder) -> float:
    """mu(P) = pi r^2 * pi^{n-1} s^{2(n-1)} / (n-1)!  (frame-independent)."""
    n = cyl.n
    disc = math.pi * cyl.r**2
    if n == 1:
        return disc
    return disc * math.pi ** (n - 1) * cyl.s ** (2 * (n - 1)) / math.factorial(n - 1)


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature recipe over a cylinder: kind, node budget, and seed.

    Kinds: "tensor-grid" (Gauss-Legendre radius x uniform angle on the r-disc,
    tensored with a symmetrized low-discrepancy shell rule on the s-ball),
    "quasi-random" (rotated Halton), "random" (seeded Monte Carlo).
    """

    kind: str = "tensor-grid"
    budget: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("tensor-grid", "quasi-random", "random"):
            raise ValueError(f"unknown quadrature kind {self.kind!r}")

    def with_budget(self, budget: int) -> "QuadratureRule":
        return QuadratureRule(self.kind, budget, self.seed)


class CylinderSample(NamedTuple):
    nodes: np.ndarray  # (N, n) complex
    weights: np.ndarray  # (N,) positive, summing to mu(P)


def random_unitary(seed: int, n: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phase-fixed diagonal."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q


def unitary_from_first_column(xi) -> np.ndarray:
    """Unitary frame whose first column is the given unit vector."""
    xi = as_point(xi)
    n = xi.size
    nz = np.linalg.norm(xi)
    if abs(nz - 1.0) > 1e-10:
        raise ValueError("direction must be a unit vector")
    xi = xi / nz
    if n == 1:
        return xi.reshape(1, 1)
    basis = np.eye(n, dtype=complex)
    cols = [xi]
    for k in range(n):
        v = basis[:, k]
        for c in cols:
            v = v - np.vdot(c, v) * c
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            cols.append(v / nv)
        if len(cols) == n:
            break
    a = np.stack(cols, axis=1)
    check_unitary(a)
    return a


def _halton_axis(cnt: int, base: int) -> np.ndarray:
    """Van der Corput values of the indices 1..cnt in the given base, in O(cnt).

    The values of 0..b^k - 1 grow one digit at a time, most significant digit
    outermost: v <- (d / b^k + v) over the digits d; the last step keeps only
    the digits that reach index cnt.  Each value sums the same digit terms in
    the same order as the digit-by-digit loop, so the two agree bit for bit.
    """
    v = np.zeros(1)
    denom = 1
    while v.size <= cnt:
        denom *= base
        digits = np.arange(min(base, -(-(cnt + 1) // v.size)))
        v = (digits[:, None] / denom + v[None, :]).ravel()
    return v[1 : cnt + 1]


def _disc_tensor(n_rad: int, n_ang: int):
    """Gauss-Legendre in rho^2 tensored with the uniform angle rule on |w| < 1."""
    x, wx = np.polynomial.legendre.leggauss(n_rad)
    rho = np.sqrt(0.5 * (x + 1.0))  # rho^2 in (0, 1)
    theta = 2.0 * math.pi * np.arange(n_ang) / n_ang
    nodes = (rho[:, None] * np.exp(1j * theta)[None, :]).ravel()
    weights = np.repeat(0.5 * wx, n_ang) * (math.pi / n_ang)
    return nodes, weights


def _disc_spiral(shells: int):
    """Golden-angle spiral rule on |w| < 1 with midpoint shells and 4-fold symmetry.

    The symmetrization integrates every angular harmonic e^{ik theta} with
    k not divisible by 4 to exactly zero, and midpoint shells in rho^2 make
    the |w|^2 moment exact, so (w, wbar)-polynomials of degree <= 2 are
    integrated exactly.
    """
    k = np.arange(shells)
    rho = np.sqrt((k + 0.5) / shells)
    base = 2.0 * math.pi * ((k * _GOLDEN) % 1.0)
    offs = np.array([0.0, 0.5, 1.0, 1.5]) * math.pi
    ang = base[:, None] + offs[None, :]
    nodes = (rho[:, None] * np.exp(1j * ang)).ravel()
    weights = np.full(nodes.size, math.pi / nodes.size)
    return nodes, weights


@lru_cache(maxsize=64)
def _unit_tensor(n: int, budget: int) -> tuple:
    """1-D factors of the tensor rule on P_{1,1}: disc nodes and weights, then
    (n = 2) shell nodes and weights.

    Both factors are linear in their radius, so the rule on P_{r,s} is this
    one under diag(r, s) with weights times r^2 s^2.
    """
    if n == 1:
        n_rad = max(2, int(round(math.sqrt(budget) / 2.0)))
        n_ang = max(8, budget // n_rad)
        factors = _disc_tensor(n_rad, n_ang)
    elif n == 2:
        if budget < 64:
            raise InsufficientNodesError(
                f"insufficient nodes: the n=2 tensor rule needs a budget >= 64, got {budget}"
            )
        b_disc = max(16, 1 << (int(math.log2(budget)) // 2))
        b_disc = min(b_disc, budget // 16)
        n_rad = max(2, int(round(math.sqrt(b_disc))))
        n_ang = max(4, b_disc // n_rad)
        shells = max(1, budget // (n_rad * n_ang * 4))
        factors = _disc_tensor(n_rad, n_ang) + _disc_spiral(shells)
    else:
        raise ValueError("tensor-grid cylinder rule supports n <= 2")
    for a in factors:
        a.flags.writeable = False
    return factors


def _uniform_model(n: int, u: np.ndarray):
    """Map uniform [0,1)^{2n} samples to P_{1,1} with the area-preserving polar map."""
    cnt = u.shape[0]
    z = np.empty((cnt, n), dtype=complex)
    z[:, 0] = np.sqrt(u[:, 0]) * np.exp(2j * math.pi * u[:, 1])
    if n == 2:
        z[:, 1] = np.sqrt(u[:, 2]) * np.exp(2j * math.pi * u[:, 3])
    elif n > 2:
        # radius via the norm CDF (|w|^{2(n-1)} law), direction via Gaussians
        g = np.asarray(u[:, 2 : 2 + 2 * (n - 1)])
        # inverse transform needs unbounded normals; erfinv keeps it deterministic
        from scipy.special import erfinv

        gg = math.sqrt(2.0) * erfinv(2.0 * np.clip(g, 1e-12, 1 - 1e-12) - 1.0)
        vec = gg[:, 0 : n - 1] + 1j * gg[:, n - 1 :]
        nv = np.linalg.norm(vec, axis=1, keepdims=True)
        nv[nv == 0.0] = 1.0
        rad = u[:, -1] ** (1.0 / (2 * (n - 1)))
        z[:, 1:] = vec / nv * rad[:, None]
    return z


# A scan's rechecks use one quasi-random rule at two budgets.  Entries are
# N-sized, so the cache keeps that pair and no more.
@lru_cache(maxsize=2)
def _unit_uniform_model(kind: str, n: int, cnt: int, seed: int) -> np.ndarray:
    """Nodes of the quasi-random (shifted Halton) or random rule on P_{1,1}."""
    if kind == "quasi-random":
        u = np.empty((cnt, 2 * n))
        for d in range(2 * n):
            u[:, d] = _halton_axis(cnt, _PRIMES[d])
        u += np.random.default_rng(seed).uniform(size=2 * n)
        np.subtract(u, 1.0, out=u, where=u >= 1.0)  # (u + shift) mod 1, exactly
    else:
        u = np.random.default_rng(seed).uniform(size=(cnt, 2 * n))
    model = _uniform_model(n, u)
    model.flags.writeable = False
    return model


def sample_cylinder(cyl: HolomorphicCylinder, rule: QuadratureRule) -> CylinderSample:
    """Quadrature nodes and weights over the cylinder; weights sum to mu(P).

    The rule is the image of a cached unit rule on P_{1,1} under
    w -> z0 + A diag(r, s, ..., s) w.  Both returned arrays are new.
    """
    if rule.budget < 16:
        raise InsufficientNodesError(
            f"insufficient nodes: budget {rule.budget} < 16"
        )
    n = cyl.n
    a = cyl.frame
    if rule.kind == "tensor-grid":
        d1, w1, *shell = _unit_tensor(n, rule.budget)
        nodes = cyl.center + (cyl.r * d1)[:, None] * a[:, 0]
        weights = cyl.r**2 * w1
        if shell:
            d2, w2 = shell
            nodes = (nodes[:, None, :] + (cyl.s * d2)[:, None] * a[:, 1]).reshape(-1, n)
            weights = np.outer(weights, cyl.s**2 * w2).ravel()
        return CylinderSample(nodes, weights)
    model = _unit_uniform_model(rule.kind, n, rule.budget, rule.seed)
    radii = np.full(n, cyl.s)
    radii[0] = cyl.r
    nodes = model @ (a * radii).T
    nodes += cyl.center
    return CylinderSample(nodes, np.full(rule.budget, cyl.volume / rule.budget))


def integrate(values: np.ndarray, weights: np.ndarray) -> float:
    """Fixed-order weighted reduction of real node values."""
    return float(np.dot(np.asarray(values, dtype=float), weights))


def montecarlo_volume(cyl: HolomorphicCylinder, samples: int, seed: int):
    """Hit-count volume of the cylinder and the 1-sigma binomial error."""
    rng = np.random.default_rng(seed)
    half = cyl.bounding_radius
    box = 2.0 * half
    u = rng.uniform(-half, half, size=(samples, 2 * cyl.n))
    pts = cyl.center + (u[:, 0::2] + 1j * u[:, 1::2])
    p = float(np.mean(cyl.contains(pts)))
    vol_box = box ** (2 * cyl.n)
    est = p * vol_box
    sigma = vol_box * math.sqrt(max(p * (1.0 - p), 1e-300) / samples)
    return est, sigma
