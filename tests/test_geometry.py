import math

import numpy as np
import pytest

from pshlab.errors import InsufficientNodesError
from pshlab.geometry import (
    DomainBox,
    HolomorphicCylinder,
    QuadratureRule,
    _halton_axis,
    as_point,
    ball_volume,
    cylinder_volume,
    integrate,
    montecarlo_volume,
    random_unitary,
    sample_cylinder,
    unit_ball,
    unitary_from_first_column,
)


def disc(r=1.0, center=0.0):
    return HolomorphicCylinder(np.array([center], dtype=complex), np.eye(1), r)


def cyl2(r, s, seed=None, center=(0.0, 0.0)):
    frame = np.eye(2, dtype=complex) if seed is None else random_unitary(seed, 2)
    return HolomorphicCylinder(np.asarray(center, dtype=complex), frame, r, s)


def model_monomial_integral(a, b, r, s, n):
    """Closed-form integral of prod z_j^a_j conj(z_j)^b_j over P_{r,s}.

    Polar factorization: each disc factor integrates z^p conj(z)^q to zero
    unless p == q, and to pi R^{2p+2} / (p+1) when p == q.  Oracle for the
    quadrature exactness tests (n <= 2 only here).
    """

    def disc_factor(p, q, radius):
        if p != q:
            return 0.0
        return math.pi * radius ** (2 * p + 2) / (p + 1)

    out = disc_factor(a[0], b[0], r)
    if n == 2:
        out *= disc_factor(a[1], b[1], s)
    return out


class TestVolume:
    def test_disc_area(self):
        assert cylinder_volume(disc(2.0)) == pytest.approx(4.0 * math.pi, rel=1e-15)

    def test_bidisc(self):
        assert cylinder_volume(cyl2(1.0, 1.0)) == pytest.approx(math.pi**2, rel=1e-15)

    def test_frame_invariance(self):
        assert cylinder_volume(cyl2(1.0, 1.0, seed=7)) == pytest.approx(
            math.pi**2, rel=1e-15
        )

    def test_ball_volume(self):
        assert ball_volume(1) == pytest.approx(math.pi)
        assert ball_volume(2) == pytest.approx(math.pi**2 / 2.0)

    def test_montecarlo_cross_check(self):
        for cyl in (disc(0.8), cyl2(0.7, 0.4, seed=3)):
            est, sigma = montecarlo_volume(cyl, samples=10**6, seed=11)
            assert abs(est - cyl.volume) <= 3.0 * sigma


class TestRandomUnitary:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unitarity(self, n):
        a = random_unitary(5, n)
        assert np.max(np.abs(a.conj().T @ a - np.eye(n))) <= 1e-12

    def test_u1_is_circle(self):
        a = random_unitary(9, 1)
        assert abs(abs(a[0, 0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unit_determinant(self, n):
        assert abs(abs(np.linalg.det(random_unitary(13, n))) - 1.0) <= 1e-10

    def test_deterministic(self):
        a = random_unitary(42, 2)
        b = random_unitary(42, 2)
        assert np.array_equal(a, b)

    def test_first_column_frame(self):
        xi = np.array([0.6, 0.8j])
        a = unitary_from_first_column(xi)
        assert np.linalg.norm(a[:, 0] - xi) <= 1e-12
        assert np.max(np.abs(a.conj().T @ a - np.eye(2))) <= 1e-12


class TestSampling:
    @pytest.mark.parametrize("kind", ["tensor-grid", "quasi-random", "random"])
    def test_weight_sums_to_volume(self, kind):
        for cyl in (disc(1.3), cyl2(0.9, 0.5, seed=2)):
            sample = sample_cylinder(cyl, QuadratureRule(kind, 4096, seed=1))
            assert np.sum(sample.weights) == pytest.approx(cyl.volume, rel=1e-8)
            assert np.all(sample.weights > 0)

    @pytest.mark.parametrize("kind", ["tensor-grid", "quasi-random", "random"])
    def test_nodes_inside(self, kind):
        cyl = cyl2(0.9, 0.5, seed=4)
        sample = sample_cylinder(cyl, QuadratureRule(kind, 2048, seed=1))
        assert np.all(cyl.contains(sample.nodes))

    def test_budget_too_small(self):
        with pytest.raises(InsufficientNodesError, match="insufficient nodes"):
            sample_cylinder(disc(), QuadratureRule("tensor-grid", 8, 0))

    def test_constant_integrand(self):
        cyl = cyl2(1.1, 0.6, seed=5)
        sample = sample_cylinder(cyl, QuadratureRule("tensor-grid", 4096, 0))
        assert integrate(np.ones(len(sample.weights)), sample.weights) == pytest.approx(
            cyl.volume, rel=1e-8
        )

    def test_disc_sq_integral(self):
        # oracle: polar integration of |z|^2 over the unit disc = pi/2
        sample = sample_cylinder(disc(), QuadratureRule("tensor-grid", 4096, 0))
        val = integrate(np.abs(sample.nodes[:, 0]) ** 2, sample.weights)
        assert val == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_odd_symmetry(self):
        cyl = cyl2(1.0, 1.0, seed=6)
        sample = sample_cylinder(cyl, QuadratureRule("tensor-grid", 65536, 0))
        val = np.dot(sample.nodes[:, 0], sample.weights)
        assert abs(val) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    def test_degree2_exactness(self, n):
        r, s = 0.8, 0.6
        if n == 1:
            cyl = disc(r)
            budget = 4096
        else:
            cyl = cyl2(r, s)
            budget = 65536
        sample = sample_cylinder(cyl, QuadratureRule("tensor-grid", budget, 0))
        exps = (
            [((0,), (0,)), ((1,), (0,)), ((1,), (1,)), ((2,), (0,))]
            if n == 1
            else [
                ((0, 0), (0, 0)), ((1, 0), (0, 0)), ((0, 1), (0, 0)),
                ((1, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 0), (0, 1)),
                ((2, 0), (0, 0)), ((0, 2), (0, 0)), ((1, 1), (0, 0)),
            ]
        )
        for a, b in exps:
            vals = np.ones(len(sample.weights), dtype=complex)
            for j in range(n):
                vals *= sample.nodes[:, j] ** a[j] * np.conj(sample.nodes[:, j]) ** b[j]
            num = np.dot(vals, sample.weights)
            exact = model_monomial_integral(a, b, r, s, n)
            scale = max(abs(exact), cyl.volume * cyl.bounding_radius ** (sum(a) + sum(b)))
            assert abs(num - exact) <= 1e-6 * scale

    def test_radial_frame_invariance(self):
        # cylinder integrals of radial integrands do not depend on the frame
        z0 = np.array([0.3 + 0.1j, -0.2j])
        vals = []
        for seed in (1, 2, 3):
            cyl = HolomorphicCylinder(z0, random_unitary(seed, 2), 0.7, 0.4)
            sample = sample_cylinder(cyl, QuadratureRule("tensor-grid", 16384, 0))
            f = np.exp(-np.linalg.norm(sample.nodes - z0, axis=1) ** 2)
            vals.append(integrate(f, sample.weights))
        assert max(vals) - min(vals) <= 1e-12 * max(map(abs, vals))

    def test_quasirandom_n3(self):
        # the design admits general n through the uniform-map rules
        cyl = HolomorphicCylinder(
            np.zeros(3, dtype=complex), random_unitary(2, 3), 0.8, 0.5
        )
        sample = sample_cylinder(cyl, QuadratureRule("quasi-random", 2048, seed=1))
        assert np.sum(sample.weights) == pytest.approx(cyl.volume, rel=1e-8)
        assert np.all(cyl.contains(sample.nodes))

    def test_tensor_rule_rejects_high_dimension(self):
        cyl = HolomorphicCylinder(
            np.zeros(3, dtype=complex), random_unitary(2, 3), 0.8, 0.5
        )
        with pytest.raises(ValueError, match="n <= 2"):
            sample_cylinder(cyl, QuadratureRule("tensor-grid", 4096, seed=1))

    def test_deterministic_sampling(self):
        cyl = cyl2(0.9, 0.5, seed=8)
        a = sample_cylinder(cyl, QuadratureRule("random", 1024, seed=3))
        b = sample_cylinder(cyl, QuadratureRule("random", 1024, seed=3))
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.weights, b.weights)



def vdc_digit_loop(indices: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput values by the digit loop, least significant digit first (oracle)."""
    out = np.zeros(indices.shape, dtype=float)
    denom = np.ones(indices.shape, dtype=float)
    idx = indices.astype(np.int64).copy()
    while np.any(idx > 0):
        denom *= base
        out += (idx % base) / denom
        idx //= base
    return out


KINDS = ["tensor-grid", "quasi-random", "random"]


def cylinders(kind):
    """(cylinder, budget) pairs in C^1, C^2 and (no tensor rule there) C^3."""
    out = [
        (HolomorphicCylinder(np.array([2.5 - 1.0j]), np.array([[1j]]), 0.7), 4096),
        (HolomorphicCylinder(np.array([0.3 + 0.1j, -4.0j]), random_unitary(3, 2), 1.7, 0.4), 16384),
        (HolomorphicCylinder(np.array([1e3, 1e3j]), random_unitary(5, 2), 1e-3, 2e-3), 4096),
    ]
    if kind != "tensor-grid":
        out.append((HolomorphicCylinder(np.array([1.0, 2.0j, -3.0]), random_unitary(2, 3), 0.8, 0.5), 2048))
    return out


class TestUnitRule:
    @pytest.mark.parametrize("kind", KINDS)
    def test_nodes_are_frame_image_of_unit_rule(self, kind):
        for cyl, budget in cylinders(kind):
            rule = QuadratureRule(kind, budget, seed=4)
            n = cyl.n
            unit = HolomorphicCylinder(np.zeros(n, dtype=complex), np.eye(n), 1.0, 1.0)
            w = sample_cylinder(unit, rule).nodes
            radii = np.array([cyl.r] + [cyl.s] * (n - 1))
            expected = cyl.center + (w * radii) @ cyl.frame.T
            got = sample_cylinder(cyl, rule).nodes
            scale = np.max(np.abs(cyl.center)) + cyl.r + cyl.s
            assert np.max(np.abs(got - expected)) <= 1e-14 * scale

    @pytest.mark.parametrize("kind", KINDS)
    def test_weights_sum_to_measure(self, kind):
        for cyl, budget in cylinders(kind):
            sample = sample_cylinder(cyl, QuadratureRule(kind, budget, seed=4))
            assert abs(np.sum(sample.weights) - cyl.volume) <= 1e-13 * cyl.volume

    @pytest.mark.parametrize("kind", KINDS)
    def test_returned_arrays_are_fresh(self, kind):
        for cyl, budget in cylinders(kind):
            rule = QuadratureRule(kind, budget, seed=4)
            first = sample_cylinder(cyl, rule)
            nodes, weights = first.nodes.copy(), first.weights.copy()
            first.nodes[:] = 0.0
            first.weights[:] = -1.0
            again = sample_cylinder(cyl, rule)
            assert np.array_equal(again.nodes, nodes)
            assert np.array_equal(again.weights, weights)

    @pytest.mark.parametrize("base", [2, 3, 5, 7])
    def test_halton_matches_digit_loop(self, base):
        for cnt in (1, base - 1, base, base**2, base**3 + 1, 1000, 262144):
            got = _halton_axis(cnt, base)
            expected = vdc_digit_loop(np.arange(1, cnt + 1), base)
            np.testing.assert_array_max_ulp(got, expected, maxulp=1)

class TestDomainBox:
    def test_ball_membership(self):
        ball = unit_ball(2, radius=1.0)
        assert ball.contains(np.array([[0.5, 0.5j]]))[0]
        assert not ball.contains(np.array([[1.0, 0.5j]]))[0]

    def test_inradius(self):
        ball = unit_ball(1, radius=2.0)
        assert ball.inradius_from(np.array([1.0 + 0.0j])) == pytest.approx(1.0)

    def test_box_membership(self):
        box = DomainBox("box", np.zeros(1, dtype=complex), np.array([1.0, 2.0]))
        assert box.contains(np.array([[0.9 + 1.9j]]))[0]
        assert not box.contains(np.array([[1.1 + 0.0j]]))[0]

    def test_polydisc_membership_and_inradius(self):
        pd = DomainBox("polydisc", np.zeros(2, dtype=complex), np.array([1.0, 0.5]))
        assert pd.contains(np.array([[0.9 + 0.3j, 0.2 - 0.4j]]))[0]
        assert not pd.contains(np.array([[0.9 + 0.3j, 0.6 + 0.0j]]))[0]
        assert pd.inradius_from(np.array([0.5, 0.0j])) == pytest.approx(0.5)

    def test_region_extent_validation(self):
        with pytest.raises(ValueError, match="extents"):
            DomainBox("polydisc", np.zeros(2, dtype=complex), np.array([1.0]))
        with pytest.raises(ValueError, match="unknown region kind"):
            DomainBox("torus", np.zeros(1, dtype=complex), np.array([1.0]))

    def test_grid_points_inside(self):
        ball = unit_ball(2, radius=0.8)
        pts = ball.grid_points(7)
        assert pts.shape[0] > 0
        assert np.all(ball.contains(pts))

    def test_point_validation(self):
        with pytest.raises(ValueError):
            as_point([np.nan])
