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
_PRIMES = (2, 3, 5, 7)


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


def row_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last (coordinate) axis, as a new array: one column add at a
    time from 0.0, 0.0 + a[..., 0] + a[..., 1] + ...

    Up to 7 real or 3 complex columns this is np.sum(a, axis=-1) bit for bit (numpy
    sums 8 or more doubles pairwise), and much faster: numpy reduces a short last
    axis with one strided inner loop per row, a handful of whole-column adds does not.
    """
    out = 0.0 + a[..., 0]
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def weighted_total(values: np.ndarray, weights):
    """sum_i values[i] weights[i] over 1-D node arrays, real or complex (weights may
    be one scalar weight of every node): the products summed pairwise by np.sum, on
    one thread and without BLAS, so the bits do not depend on the BLAS thread count."""
    return np.sum(values * weights)


def abs_sq(x):
    """|x|^2 as re * re + im * im, the same bits at every SIMD level (np.abs is not)."""
    out = x.real * x.real
    out += x.imag * x.imag
    return out


def row_sq_norm(d: np.ndarray) -> np.ndarray:
    """|d|^2 of each point, one coordinate column at a time: row_sum(abs_sq(d)) bit for bit."""
    out = abs_sq(d[..., 0])
    for j in range(1, d.shape[-1]):
        out += abs_sq(d[..., j])
    return out


def row_norm(d: np.ndarray) -> np.ndarray:
    """|d| of each point, the root of row_sq_norm."""
    return np.sqrt(row_sq_norm(d))


def log_ball_volume(n: int) -> float:
    """log mu(B_1) of the unit ball of C^n = R^{2n}, mu(B_1) = pi^n / n!."""
    return n * math.log(math.pi) - math.lgamma(n + 1)


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
        if not np.all(np.isfinite(ext) & (ext > 0.0)):
            raise ValueError("extents must be positive and finite")
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
            return row_norm(d) <= self.extents[0]
        if self.kind == "polydisc":
            return np.all(np.abs(d) <= self.extents, axis=-1)
        hw = self.extents.reshape(self.n, 2)
        ok_x = np.abs(d.real) <= hw[:, 0]
        ok_y = np.abs(d.imag) <= hw[:, 1]
        return np.all(ok_x & ok_y, axis=-1)

    def inradius_from(self, z):
        """Largest t such that the Euclidean ball B(z, t) stays inside the region,
        as an (m,) array for (m, n) points z."""
        d = as_points(z, self.n) - self.center
        if self.kind == "ball":
            return self.extents[0] - row_norm(d)  # the distance that contains compares
        # a box's extents bound |re z_1|, |im z_1|, |re z_2|, ...: d as interleaved reals
        gaps = self.extents - np.abs(d if self.kind == "polydisc" else d.view(float))
        return np.min(gaps, axis=-1)

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


def check_unitary(a: np.ndarray) -> float:
    """Return the max-entry deviation of A^H A from the identity; ValueError
    above UNITARITY_TOL."""
    a = np.asarray(a, dtype=complex)
    dev = np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0])))
    if dev > UNITARITY_TOL:
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
        if not (0.0 < self.r < math.inf and 0.0 < self.s < math.inf):
            raise ValueError(
                f"cylinder radii must be finite and positive, got r={self.r}, s={self.s}")

    @property
    def n(self) -> int:
        return self.center.size

    @property
    def log_volume(self) -> float:
        """log mu(P) = log pi + 2 log r + (n-1)(log pi + 2 log s) - log (n-1)!: frame-free,
        and finite at any finite positive r and s, where mu(P) may leave the double range."""
        log_pi = math.log(math.pi)
        return (log_pi + 2.0 * math.log(self.r)
                + (self.n - 1) * (log_pi + 2.0 * math.log(self.s)) - math.lgamma(self.n))


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature recipe over a cylinder: kind, node budget, and seed.

    Kinds: "tensor-grid" (Gauss-Legendre radius x uniform angle on the r-disc,
    tensored with a symmetrized low-discrepancy shell rule on the s-ball), which
    takes no seed, and "quasi-random" (Halton, shifted by a uniform draw c of seed,
    (h + c) mod 1 per axis: c remaps the cached radii and rotates the frame).
    """

    kind: str
    budget: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("tensor-grid", "quasi-random"):
            raise ValueError(f"unknown quadrature kind {self.kind!r}")


class CylinderSample(NamedTuple):
    nodes: np.ndarray  # (N, n) complex, new on every call
    weights: np.ndarray  # (N,) positive mean weights, summing to 1; a tensor rule's are shared


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


def seeded_frame(seed: int, n: int) -> np.ndarray:
    """The frame of a cylinder drawn by seed: random_unitary(seed, n), and the
    identity at n = 1, where a frame only turns the disc."""
    return random_unitary(seed, n) if n > 1 else np.eye(1, dtype=complex)


def _digit_recursion(cnt: int, base: int, v: np.ndarray, step) -> np.ndarray:
    """Values of the indices 1..cnt from their base-b digits, in O(cnt): from
    v of index 0, the values of 0..b^k - 1 grow one digit at a time, most
    significant digit outermost, v <- step(d / b^k, v) over the digits d; the
    last step keeps only the digits that reach index cnt."""
    denom = 1
    while v.size <= cnt:
        denom *= base
        digits = np.arange(min(base, -(-(cnt + 1) // v.size)))
        v = step(digits[:, None] / denom, v[None, :]).ravel()
    return v[1 : cnt + 1]


def _halton_axis(cnt: int, base: int) -> np.ndarray:
    """Van der Corput values of 1..cnt, v <- d / b^k + v: the digit loop's terms in its order."""
    return _digit_recursion(cnt, base, np.zeros(1), np.add)


def _halton_phase(cnt: int, base: int) -> np.ndarray:
    """e^{2 pi i h} of the same values, v <- e^{2 pi i d / b^k} v: one exp per digit."""
    return _digit_recursion(cnt, base, np.ones(1, dtype=complex),
                            lambda t, v: np.exp(2j * math.pi * t) * v)


def _disc_tensor(n_rad: int, n_ang: int):
    """Gauss-Legendre in rho^2 tensored with the uniform angle rule on |w| < 1; mean weights."""
    x, wx = np.polynomial.legendre.leggauss(n_rad)
    rho = np.sqrt(0.5 * (x + 1.0))  # rho^2 in (0, 1)
    theta = 2.0 * math.pi * np.arange(n_ang) / n_ang
    nodes = (rho[:, None] * np.exp(1j * theta)[None, :]).ravel()
    return nodes, np.repeat(0.5 * wx, n_ang) / n_ang


def _disc_spiral(shells: int):
    """Golden-angle spiral rule on |w| < 1 with midpoint shells and 4-fold symmetry.

    The symmetrization integrates every angular harmonic e^{ik theta} with
    k not divisible by 4 to exactly zero, and midpoint shells in rho^2 make
    the |w|^2 moment exact, so (w, wbar)-polynomials of degree <= 2 are
    integrated exactly.  Returns the nodes and their one mean weight 1/N.
    """
    k = np.arange(shells)
    rho = np.sqrt((k + 0.5) / shells)
    base = 2.0 * math.pi * ((k * _GOLDEN) % 1.0)
    offs = np.array([0.0, 0.5, 1.0, 1.5]) * math.pi
    ang = base[:, None] + offs[None, :]
    nodes = (rho[:, None] * np.exp(1j * ang)).ravel()
    return nodes, 1.0 / nodes.size


@lru_cache(maxsize=64)
def _unit_tensor(n: int, budget: int) -> tuple:
    """The tensor rule on P_{1,1}: disc nodes, the mean weights of all nodes (at n = 2
    the outer product of the disc's and the shell's), then (n = 2) shell nodes.

    Both node factors are linear in their radius, so the rule on P_{r,s} is this
    one under diag(r, s), and its mean weights are these, shared read-only.
    """
    if n == 1:
        n_rad = max(2, int(round(math.sqrt(budget) / 2.0)))
        n_ang = max(8, budget // n_rad)
        factors = _disc_tensor(n_rad, n_ang)
    else:
        if budget < 64:
            raise InsufficientNodesError(
                f"insufficient nodes: the n=2 tensor rule needs a budget >= 64, got {budget}"
            )
        b_disc = max(16, 1 << (int(math.log2(budget)) // 2))
        b_disc = min(b_disc, budget // 16)
        n_rad = max(2, int(round(math.sqrt(b_disc))))
        n_ang = max(4, b_disc // n_rad)
        shells = max(1, budget // (n_rad * n_ang * 4))
        (d1, w1), (d2, w2) = _disc_tensor(n_rad, n_ang), _disc_spiral(shells)
        factors = d1, np.repeat(w1 * w2, d2.size), d2  # w1 (x) w2: w2 is one number
    for a in factors:
        a.flags.writeable = False
    return factors


# Seed-free Halton factors, one entry per (n, budget); criterion 3 alternates
# n = 2 and n = 1 scans.  An n = 2 entry at a 262,144-node cross rule is 12 MB.
@lru_cache(maxsize=2)
def _halton_table(n: int, cnt: int) -> tuple:
    """Read-only (cnt, n) radial values h (bases 2, 5) and phases e^{2 pi i h} (3, 7)."""
    table = (np.stack([_halton_axis(cnt, b) for b in _PRIMES[0 : 2 * n : 2]], axis=1),
             np.stack([_halton_phase(cnt, b) for b in _PRIMES[1 : 2 * n : 2]], axis=1))
    for a in table:
        a.flags.writeable = False
    return table


# A scan's cross rule is one quasi-random rule at one budget, 4x the first
# pass's.  Entries are N-sized, so the cache keeps that rule and no more.
@lru_cache(maxsize=1)
def _unit_uniform_model(n: int, cnt: int, seed: int) -> tuple:
    """The quasi-random (shifted Halton) rule on P_{1,1}: nodes model * rot.

    The seed's shift c makes pairs (u_re, u_im) = (h + c) mod 1, mapped onto the
    unit disc by the area-preserving sqrt(u_re) e^{2 pi i u_im}; the angle is
    e^{2 pi i h} e^{2 pi i c}, whose rot = e^{2 pi i c} the frame takes.
    """
    radial, phase = _halton_table(n, cnt)
    shift = np.random.default_rng(seed).uniform(size=2 * n)
    u = np.empty_like(radial)
    for k in range(n):  # by column, as in sample_cylinder
        np.add(radial[:, k], shift[2 * k], out=u[:, k])
    u -= u >= 1.0  # (u + shift) mod 1, exactly: u - 0.0 is u
    model = np.sqrt(u, out=u) * phase
    model.flags.writeable = False
    return model, np.exp(2j * math.pi * shift[1::2])


def sample_cylinder(cyl: HolomorphicCylinder, rule: QuadratureRule) -> CylinderSample:
    """Quadrature nodes over the cylinder and their mean weights, which sum to 1, so
    that sum(phi(nodes) * weights) is the rule's (1/mu(P)) int_{z0+P} phi.

    The rule is the image of a cached unit rule on P_{1,1} under
    w -> z0 + A diag(r, s) w, with a quasi-random rule's rotations in A.
    The n = 2 maps add one coordinate column at a time (the shell's image to
    the disc's, the center to the frame image), as numpy runs an (m, 2) array
    broadcast against a length-2 vector as one 2-element loop per row; the
    nodes are the broadcast's bit for bit.  Every kind supports n <= 2.  The
    nodes are a new C-contiguous (m, n) array; a tensor rule's weights are the
    unit rule's read-only array, one per (n, budget).
    """
    if rule.budget < 16:
        raise InsufficientNodesError(
            f"insufficient nodes: budget {rule.budget} < 16"
        )
    n = cyl.n
    if n > 2:
        raise ValueError(f"{rule.kind} cylinder rule supports n <= 2")
    a = cyl.frame
    if rule.kind == "tensor-grid":
        d1, weights, *shell = _unit_tensor(n, rule.budget)
        nodes = cyl.center + (cyl.r * d1)[:, None] * a[:, 0]
        if shell:
            [d2] = shell
            grid = np.empty((d1.size, d2.size, n), dtype=complex)
            for k in range(n):
                np.add.outer(nodes[:, k], (cyl.s * d2) * a[k, 1], out=grid[:, :, k])
            nodes = grid.reshape(-1, n)
        return CylinderSample(nodes, weights)
    model, rot = _unit_uniform_model(n, rule.budget, rule.seed)
    nodes = model @ (a * (rot * [cyl.r, cyl.s][:n])).T
    for k in range(n):
        nodes[:, k] += cyl.center[k]
    return CylinderSample(nodes, np.full(rule.budget, 1.0 / rule.budget))
