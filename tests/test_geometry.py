import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pshlab import fields, geometry, meanvalue
from pshlab.errors import InsufficientNodesError
from pshlab.geometry import (
    DomainBox,
    HolomorphicCylinder,
    QuadratureRule,
    _halton_axis,
    _halton_phase,
    _halton_table,
    as_point,
    ball_volume,
    random_unitary,
    sample_cylinder,
    unit_ball,
)

from cylinder_helpers import (
    assert_bits,
    bounding_radius,
    contains,
    montecarlo_volume,
    quasi_random_nodes_oracle,
    tensor_nodes_oracle,
    unit_uniform_remap_oracle,
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
        assert disc(2.0).volume == pytest.approx(4.0 * math.pi, rel=1e-15)

    def test_bidisc(self):
        assert cyl2(1.0, 1.0).volume == pytest.approx(math.pi**2, rel=1e-15)

    def test_frame_invariance(self):
        assert cyl2(1.0, 1.0, seed=7).volume == pytest.approx(
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

    def test_seeded_frame_draws_only_above_n_1(self, monkeypatch):
        import pshlab.geometry as geometry

        draws = []
        draw = geometry.random_unitary
        monkeypatch.setattr(geometry, "random_unitary",
                            lambda seed, n: draws.append(n) or draw(seed, n))
        assert np.array_equal(geometry.seeded_frame(7, 1), np.eye(1, dtype=complex))
        assert np.array_equal(geometry.seeded_frame(7, 2), draw(7, 2))
        assert draws == [2]


@pytest.mark.parametrize("r, s", [(0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                                  (1.0, 0.0), (1.0, math.nan), (1.0, math.inf)])
def test_cylinder_radii_must_be_finite_and_positive(r, s):
    with pytest.raises(ValueError, match="cylinder radii must be finite and positive"):
        HolomorphicCylinder(np.zeros(1, dtype=complex), np.eye(1), r, s)


class TestSampling:
    @pytest.mark.parametrize("kind", ["tensor-grid", "quasi-random"])
    def test_weight_sums_to_volume(self, kind):
        for cyl in (disc(1.3), cyl2(0.9, 0.5, seed=2)):
            sample = sample_cylinder(cyl, QuadratureRule(kind, 4096, seed=1))
            assert np.sum(sample.weights) == pytest.approx(cyl.volume, rel=1e-8)
            assert np.all(sample.weights > 0)

    @pytest.mark.parametrize("kind", ["tensor-grid", "quasi-random"])
    def test_nodes_inside(self, kind):
        cyl = cyl2(0.9, 0.5, seed=4)
        sample = sample_cylinder(cyl, QuadratureRule(kind, 2048, seed=1))
        assert np.all(contains(cyl, sample.nodes))

    def test_unknown_rule_kind(self):
        with pytest.raises(ValueError, match="unknown quadrature kind 'random'"):
            QuadratureRule("random", 4096, seed=1)

    def test_budget_too_small(self):
        with pytest.raises(InsufficientNodesError, match="insufficient nodes"):
            sample_cylinder(disc(), QuadratureRule("tensor-grid", 8, 0))

    def test_constant_integrand(self):
        cyl = cyl2(1.1, 0.6, seed=5)
        sample = sample_cylinder(cyl, QuadratureRule("tensor-grid", 4096, 0))
        assert np.dot(np.ones(len(sample.weights)), sample.weights) == pytest.approx(
            cyl.volume, rel=1e-8
        )

    def test_disc_sq_integral(self):
        # oracle: polar integration of |z|^2 over the unit disc = pi/2
        sample = sample_cylinder(disc(), QuadratureRule("tensor-grid", 4096, 0))
        val = np.dot(np.abs(sample.nodes[:, 0]) ** 2, sample.weights)
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
            scale = max(abs(exact), cyl.volume * bounding_radius(cyl) ** (sum(a) + sum(b)))
            assert abs(num - exact) <= 1e-6 * scale

    def test_radial_frame_invariance(self):
        # cylinder integrals of radial integrands do not depend on the frame
        z0 = np.array([0.3 + 0.1j, -0.2j])
        vals = []
        for seed in (1, 2, 3):
            cyl = HolomorphicCylinder(z0, random_unitary(seed, 2), 0.7, 0.4)
            sample = sample_cylinder(cyl, QuadratureRule("tensor-grid", 16384, 0))
            f = np.exp(-np.linalg.norm(sample.nodes - z0, axis=1) ** 2)
            vals.append(np.dot(f, sample.weights))
        assert max(vals) - min(vals) <= 1e-12 * max(map(abs, vals))

    def test_tensor_rule_rejects_high_dimension(self):
        # every rule kind is built for n <= 2 only
        cyl = HolomorphicCylinder(
            np.zeros(3, dtype=complex), random_unitary(2, 3), 0.8, 0.5
        )
        for kind in ("tensor-grid", "quasi-random"):
            with pytest.raises(ValueError, match=f"{kind} cylinder rule supports n <= 2"):
                sample_cylinder(cyl, QuadratureRule(kind, 4096, seed=1))

    def test_deterministic_sampling(self):
        cyl = cyl2(0.9, 0.5, seed=8)
        a = sample_cylinder(cyl, QuadratureRule("quasi-random", 1024, seed=3))
        b = sample_cylinder(cyl, QuadratureRule("quasi-random", 1024, seed=3))
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


KINDS = ["tensor-grid", "quasi-random"]


def cylinders():
    """(cylinder, budget) pairs in C^1 and C^2, the dimensions every rule kind supports."""
    return [
        (HolomorphicCylinder(np.array([2.5 - 1.0j]), np.array([[1j]]), 0.7), 4096),
        (HolomorphicCylinder(np.array([0.3 + 0.1j, -4.0j]), random_unitary(3, 2), 1.7, 0.4), 16384),
        (HolomorphicCylinder(np.array([1e3, 1e3j]), random_unitary(5, 2), 1e-3, 2e-3), 4096),
    ]


class TestUnitRule:
    @pytest.mark.parametrize("kind", KINDS)
    def test_nodes_are_frame_image_of_unit_rule(self, kind):
        for cyl, budget in cylinders():
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
        for cyl, budget in cylinders():
            sample = sample_cylinder(cyl, QuadratureRule(kind, budget, seed=4))
            assert abs(np.sum(sample.weights) - cyl.volume) <= 1e-13 * cyl.volume

    @pytest.mark.parametrize("kind", KINDS)
    def test_returned_arrays_are_fresh(self, kind):
        for cyl, budget in cylinders():
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

    @pytest.mark.parametrize("base", [3, 7])
    def test_halton_phase_matches_exp_of_axis(self, base):
        for cnt in (1, base - 1, base, base**2, base**3 + 1, 1000, 262144):
            expected = np.exp(2j * np.pi * _halton_axis(cnt, base))
            assert np.max(np.abs(_halton_phase(cnt, base) - expected)) <= 4e-15


def unit_uniform_oracle(n: int, cnt: int, seed: int) -> np.ndarray:
    """The quasi-random unit rule with the shift applied node by node to all 2n
    Halton axes, the angle included (oracle)."""
    u = np.empty((cnt, 2 * n))
    for d in range(2 * n):
        u[:, d] = _halton_axis(cnt, (2, 3, 5, 7)[d])
    u += np.random.default_rng(seed).uniform(size=2 * n)
    np.subtract(u, 1.0, out=u, where=u >= 1.0)
    return np.sqrt(u[:, 0::2]) * np.exp(2j * math.pi * u[:, 1::2])


def use_oracle(monkeypatch):
    """Make every quasi-random rule the oracle's nodes, with no frame rotation."""
    monkeypatch.setattr(geometry, "_unit_uniform_model",
                        lambda n, cnt, seed: (unit_uniform_oracle(n, cnt, seed), np.ones(n)))


def scan_key(res):
    """Every number of a scan result, cylinders included, as comparable bytes."""
    return res.cylinders_checked, [
        (v.cylinder.center.tobytes(), v.cylinder.frame.tobytes(), v.cylinder.r, v.cylinder.s,
         v.mean, v.margin, v.quad_error)
        for v in res.violations
    ]


class TestQuasiRandomShift:
    """The seed's shift of the quasi-random rule is a radial remap of a seed-free
    Halton table and one rotation per coordinate, folded into the frame."""

    @pytest.mark.parametrize("seed", [0, 4, 2**63 - 1, 2**64])
    @pytest.mark.parametrize("budget", [16, 4096, 262144])
    def test_nodes_match_shift_of_every_axis(self, monkeypatch, budget, seed):
        for cyl, _ in cylinders()[:2]:
            rule = QuadratureRule("quasi-random", budget, seed)
            got = sample_cylinder(cyl, rule)
            with monkeypatch.context() as m:
                use_oracle(m)
                expected = sample_cylinder(cyl, rule)
            scale = np.max(np.abs(cyl.center)) + cyl.r + cyl.s
            assert np.max(np.abs(got.nodes - expected.nodes)) <= 1e-14 * scale
            assert np.array_equal(got.weights, expected.weights)

    @pytest.mark.parametrize("spec, region, tol, budget", [
        ("saddle:2", geometry.unit_ball(2), 1e-3, 1024),
        ("cross", geometry.unit_ball(2), 1e-3, 1024),
        ("max_log", geometry.unit_ball(2, radius=0.8, center=[0.9, 0.6j]), 1e-6, 4096),
    ])
    def test_scans_match_shift_of_every_axis(self, monkeypatch, spec, region, tol, budget):
        phi = fields.resolve(fields.FIELDS, "func", spec, 2)
        def scan():
            return meanvalue.classify_psh(phi, region, 8, 4, seed=2, tol=tol, budget=budget)
        got = scan()
        crossed = []
        with monkeypatch.context() as m:
            use_oracle(m)
            oracle = geometry._unit_uniform_model
            m.setattr(geometry, "_unit_uniform_model",
                      lambda *key: crossed.append(key) or oracle(*key))
            expected = scan()
        assert crossed  # candidates took the cross rule
        assert scan_key(got) == scan_key(expected)

    def test_table_is_built_once_per_n_and_budget(self):
        _halton_table.cache_clear()
        cyl = cylinders()[1][0]
        for seed in (0, 1, 2):
            sample_cylinder(cyl, QuadratureRule("quasi-random", 1024, seed))
        assert _halton_table.cache_info().misses == 1
        disc_cyl = cylinders()[0][0]
        for c in (cyl, disc_cyl, cyl):  # criterion 3 alternates n = 2 and n = 1 scans
            sample_cylinder(c, QuadratureRule("quasi-random", 1024, 5))
        assert _halton_table.cache_info().misses == 2

    def test_cached_arrays_are_read_only(self):
        model, _ = geometry._unit_uniform_model(2, 64, 3)
        for a in (*_halton_table(2, 64), model):
            assert not a.flags.writeable

    def test_import_builds_no_table(self):
        code = ("import pshlab.cli, pshlab.geometry as g\n"
                "print(g._halton_table.cache_info().currsize)")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        assert proc.stdout.strip() == "0"


# up to the 4x recheck of a 65,536-node n = 2 scan and its cross rule
MAP_BUDGETS = [64, 4096, 16384, 65536, 262144]


class TestColumnMaps:
    """The n = 2 maps add one coordinate column at a time; each gives the nodes
    of the broadcast it replaced bit for bit, as a C-contiguous (m, n) array."""

    @pytest.mark.parametrize("budget", MAP_BUDGETS)
    def test_tensor_nodes_match_the_broadcast(self, budget):
        for cyl, _ in cylinders():
            nodes = sample_cylinder(cyl, QuadratureRule("tensor-grid", budget)).nodes
            assert nodes.flags.c_contiguous and nodes.shape[1:] == (cyl.n,)
            assert_bits(nodes, tensor_nodes_oracle(cyl, budget))

    @pytest.mark.parametrize("seed", [4, 2**64])
    @pytest.mark.parametrize("budget", MAP_BUDGETS)
    def test_quasi_random_nodes_match_the_broadcast(self, budget, seed):
        for cyl, _ in cylinders():
            nodes = sample_cylinder(cyl, QuadratureRule("quasi-random", budget, seed)).nodes
            assert nodes.flags.c_contiguous and nodes.shape == (budget, cyl.n)
            assert_bits(nodes, quasi_random_nodes_oracle(cyl, budget, seed))

    @pytest.mark.parametrize("seed", [0, 4, 2**63 - 1, 2**64])
    @pytest.mark.parametrize("n", [1, 2])
    def test_radial_remap_matches_the_masked_subtract(self, n, seed):
        for budget in MAP_BUDGETS:
            model, rot = geometry._unit_uniform_model(n, budget, seed)
            want_model, want_rot = unit_uniform_remap_oracle(n, budget, seed)
            assert_bits(model, want_model)
            assert_bits(rot, want_rot)


class TestDomainBox:
    def test_ball_membership(self):
        ball = unit_ball(2, radius=1.0)
        assert ball.contains(np.array([[0.5, 0.5j]]))[0]
        assert not ball.contains(np.array([[1.0, 0.5j]]))[0]

    def test_inradius(self):
        ball = unit_ball(1, radius=2.0)
        assert ball.inradius_from(np.array([[1.0 + 0.0j]])) == pytest.approx([1.0])

    def test_box_membership(self):
        box = DomainBox("box", np.zeros(1, dtype=complex), np.array([1.0, 2.0]))
        assert box.contains(np.array([[0.9 + 1.9j]]))[0]
        assert not box.contains(np.array([[1.1 + 0.0j]]))[0]

    def test_polydisc_membership_and_inradius(self):
        pd = DomainBox("polydisc", np.zeros(2, dtype=complex), np.array([1.0, 0.5]))
        assert pd.contains(np.array([[0.9 + 0.3j, 0.2 - 0.4j]]))[0]
        assert not pd.contains(np.array([[0.9 + 0.3j, 0.6 + 0.0j]]))[0]
        assert pd.inradius_from(np.array([[0.5, 0.0j]])) == pytest.approx([0.5])

    def test_region_extent_validation(self):
        with pytest.raises(ValueError, match="extents"):
            DomainBox("polydisc", np.zeros(2, dtype=complex), np.array([1.0]))
        with pytest.raises(ValueError, match="unknown region kind"):
            DomainBox("torus", np.zeros(1, dtype=complex), np.array([1.0]))
        # a nan extent used to pass, since nan <= 0 is false
        for extent in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="extents must be positive and finite"):
                DomainBox("box", np.zeros(1, dtype=complex), np.array([1.0, extent]))

    def test_grid_points_inside(self):
        ball = unit_ball(2, radius=0.8)
        pts = ball.grid_points(7)
        assert pts.shape[0] > 0
        assert np.all(ball.contains(pts))

    def test_point_validation(self):
        with pytest.raises(ValueError):
            as_point([np.nan])
