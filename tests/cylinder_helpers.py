"""Test-only helpers on cylinders: a frame with a given first axis, cylinder
means along a complex line as the cylinders thin out, membership, a hit-count
volume, the sign of a sub-mean-value margin, the broadcast maps of a unit rule
that `geometry` replaced by column maps (oracles), rule weights that sum to
mu(P), divided out after the sum (oracles), and a bit-for-bit compare."""

import math

import numpy as np

from pshlab.fields import ScalarField
from pshlab.geometry import (
    HolomorphicCylinder,
    QuadratureRule,
    _halton_table,
    _unit_tensor,
    as_point,
    as_points,
    check_unitary,
    row_norm,
    sample_cylinder,
)
from pshlab.meanvalue import MeanValueReport, clipped_mean, cylinder_mean


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


def line_disc_mean(
    phi: ScalarField,
    z0,
    xi,
    r: float,
    s_sequence,
    rule: QuadratureRule,
) -> list:
    """Cylinder means along frames with first axis xi and shrinking s.

    The returned list has one entry per s, followed by the direct disc mean
    (1/(pi r^2)) int_{|w|<r} phi(z0 + w xi) as the degenerate limit.
    """
    z0 = as_point(z0)
    xi = as_point(xi)
    frame = unitary_from_first_column(xi)
    means = []
    for s in s_sequence:
        cyl = HolomorphicCylinder(z0, frame, r, float(s))
        means.append(cylinder_mean(phi, cyl, rule))
    means.append(_direct_line_disc_mean(phi, z0, xi, r, rule))
    return means


def _direct_line_disc_mean(phi, z0, xi, r, rule: QuadratureRule):
    disc = HolomorphicCylinder(np.zeros(1, dtype=complex), np.eye(1), r)
    sample = sample_cylinder(disc, rule)
    pts = z0[None, :] + sample.nodes[:, :1] * xi[None, :]
    vals = phi(pts)
    return clipped_mean(vals, sample.weights)


def bounding_radius(cyl: HolomorphicCylinder) -> float:
    """Radius of the smallest ball around the center containing the cylinder."""
    return cyl.r if cyl.n == 1 else math.sqrt(cyl.r**2 + cyl.s**2)


def contains(cyl: HolomorphicCylinder, pts) -> np.ndarray:
    """Membership of each point in the cylinder, with the radii grown by 1e-12 relative."""
    z = as_points(pts, cyl.n)
    w = (z - cyl.center) @ cyl.frame.conj()
    ok = np.abs(w[:, 0]) <= cyl.r * (1.0 + 1e-12)
    if cyl.n > 1:
        ok &= row_norm(w[:, 1:]) <= cyl.s * (1.0 + 1e-12)
    return ok


def violates(report: MeanValueReport) -> bool:
    """Whether a sub-mean-value report's margin is negative."""
    return report.margin < 0.0


def montecarlo_volume(cyl: HolomorphicCylinder, samples: int, seed: int):
    """Hit-count volume of the cylinder and the 1-sigma binomial error."""
    rng = np.random.default_rng(seed)
    half = bounding_radius(cyl)
    box = 2.0 * half
    u = rng.uniform(-half, half, size=(samples, 2 * cyl.n))
    pts = cyl.center + (u[:, 0::2] + 1j * u[:, 1::2])
    p = float(np.mean(contains(cyl, pts)))
    vol_box = box ** (2 * cyl.n)
    est = p * vol_box
    sigma = vol_box * math.sqrt(max(p * (1.0 - p), 1e-300) / samples)
    return est, sigma


def assert_bits(got, want):
    """The two arrays have one dtype, one shape and the same bytes."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def tensor_nodes_oracle(cyl: HolomorphicCylinder, budget: int) -> np.ndarray:
    """The tensor rule's nodes by one broadcast of the (m1, n) disc image against
    the frame's second column (oracle)."""
    d1, _, *shell = _unit_tensor(cyl.n, budget)
    a = cyl.frame
    nodes = cyl.center + (cyl.r * d1)[:, None] * a[:, 0]
    if shell:
        nodes = (nodes[:, None, :] + (cyl.s * shell[0])[:, None] * a[:, 1]).reshape(-1, cyl.n)
    return nodes


def unit_uniform_remap_oracle(n: int, cnt: int, seed: int) -> tuple:
    """The quasi-random unit rule and its rotations, the radii shifted by one
    broadcast add and a masked subtract (oracle)."""
    radial, phase = _halton_table(n, cnt)
    shift = np.random.default_rng(seed).uniform(size=2 * n)
    u = radial + shift[0::2]
    np.subtract(u, 1.0, out=u, where=u >= 1.0)
    return np.sqrt(u) * phase, np.exp(2j * math.pi * shift[1::2])


def quasi_random_nodes_oracle(cyl: HolomorphicCylinder, budget: int, seed: int) -> np.ndarray:
    """The quasi-random rule's nodes: the oracle unit rule through the frame,
    then the center added by one broadcast (oracle)."""
    model, rot = unit_uniform_remap_oracle(cyl.n, budget, seed)
    nodes = model @ (cyl.frame * (rot * [cyl.r, cyl.s][: cyl.n])).T
    nodes += cyl.center
    return nodes


def cylinder_volume(cyl: HolomorphicCylinder) -> float:
    """mu(P) = pi r^2 * pi^{n-1} s^{2(n-1)} / (n-1)!, formed as a double (oracle)."""
    disc = math.pi * cyl.r**2
    if cyl.n == 1:
        return disc
    return disc * math.pi ** (cyl.n - 1) * cyl.s ** (2 * (cyl.n - 1)) / math.factorial(cyl.n - 1)


def measure_weights_oracle(cyl: HolomorphicCylinder, rule: QuadratureRule) -> np.ndarray:
    """The rule's weights scaled to sum to mu(P) (oracle): r^2 w1 (x) s^2 w2 of the
    unit factors that sum to pi, Gauss-Legendre times angle on the disc and pi / N
    per shell node, for the tensor rule, and mu(P) / budget per node for the
    quasi-random rule.  The disc's angle count is the number of nodes on its
    innermost radius."""
    if rule.kind == "quasi-random":
        return np.full(rule.budget, cylinder_volume(cyl) / rule.budget)
    d1, _, *shell = _unit_tensor(cyl.n, rule.budget)
    n_ang = int(np.count_nonzero(np.isclose(np.abs(d1), abs(d1[0]))))
    _, wx = np.polynomial.legendre.leggauss(d1.size // n_ang)
    weights = cyl.r**2 * (np.repeat(0.5 * wx, n_ang) * (math.pi / n_ang))
    if shell:
        m2 = shell[0].size
        weights = np.outer(weights, cyl.s**2 * np.full(m2, math.pi / m2)).ravel()
    return weights


def measure_mean_oracle(values: np.ndarray, cyl: HolomorphicCylinder, rule: QuadratureRule) -> float:
    """sum(values * weights) / mu(P) over the weights that sum to mu(P) (oracle)."""
    return float(np.sum(values * measure_weights_oracle(cyl, rule)) / cylinder_volume(cyl))
