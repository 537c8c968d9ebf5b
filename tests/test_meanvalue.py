import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate as sint

from pshlab import fields
from pshlab.geometry import HolomorphicCylinder, QuadratureRule, random_unitary, unit_ball
from pshlab.meanvalue import (
    classify_psh,
    clipped_mean,
    cylinder_mean,
    submean_test,
)

from cylinder_helpers import line_disc_mean, violates

RULE = QuadratureRule("tensor-grid", 4096, seed=0)


def disc(r=1.0, center=0.0):
    return HolomorphicCylinder(np.array([center], dtype=complex), np.eye(1), r)


def disc_mean_oracle(func, r, center):
    """Independent polar quadrature of (1/pi r^2) int_{|w|<r} func(center + w)."""

    def integrand(rho, theta):
        return func(center + rho * np.exp(1j * theta)) * rho

    val, _ = sint.dblquad(integrand, 0.0, 2.0 * math.pi, 0.0, r, epsabs=1e-12)
    return val / (math.pi * r * r)


def mean_with_embedded_error(phi, cyl, rule):
    """Cylinder mean plus the error estimate of its own embedded quarter-budget rule."""
    mean = cylinder_mean(phi, cyl, rule)
    mean_coarse = cylinder_mean(phi, cyl, replace(rule, budget=max(16, rule.budget // 4)))
    if np.isfinite(mean) and np.isfinite(mean_coarse):
        err = abs(mean - mean_coarse)
    else:
        err = float("inf")
    return mean, err


def sampled_rules(monkeypatch):
    """The rules of every cylinder sample meanvalue draws from now on, in order."""
    from pshlab import meanvalue

    calls = []
    sample = meanvalue.sample_cylinder

    def counted(cyl, rule):
        calls.append(rule)
        return sample(cyl, rule)

    monkeypatch.setattr(meanvalue, "sample_cylinder", counted)
    return calls


class TestCylinderMean:
    def test_log_abs_harmonic_mean(self):
        # mean-value equality of the harmonic function log|z| away from 0
        val = cylinder_mean(fields.log_abs(np.zeros(1), 1), disc(0.5, center=1.0), RULE)
        assert val == pytest.approx(0.0, abs=1e-6)

    def test_sq_norm_disc(self):
        for r in (0.5, 1.0):
            val = cylinder_mean(fields.sq_norm(1), disc(r), RULE)
            assert val == pytest.approx(r * r / 2.0, rel=1e-6)
        oracle = disc_mean_oracle(lambda w: abs(w) ** 2, 1.0, 0.0)
        assert oracle == pytest.approx(0.5, rel=1e-9)

    def test_one_rule_per_mean(self, monkeypatch):
        calls = sampled_rules(monkeypatch)
        cylinder_mean(fields.sq_norm(1), disc(), RULE)
        assert calls == [RULE]

    def test_constant(self):
        const = fields.ScalarField("c", 1, lambda z: np.full(z.shape[0], 3.25))
        assert cylinder_mean(const, disc(), RULE) == pytest.approx(3.25, rel=1e-14)

    def test_pole_inside_body_is_integrable(self):
        # pole strictly inside the disc, at no node: the mean is finite and
        # near the superharmonic defect value log r - (1 - d^2/r^2)/2 ... here d=0:
        val = cylinder_mean(fields.log_abs(np.zeros(1), 1), disc(1.0), RULE)
        assert val == pytest.approx(-0.5, abs=2e-3)

    def test_clipped_mean_diverges(self):
        vals = np.array([-np.inf, 0.0])
        w = np.array([0.5, 0.5])
        assert clipped_mean(vals, w, 1.0) == -np.inf


class TestSubmeanTest:
    def test_sq_norm_margin(self):
        rep = submean_test(fields.sq_norm(1), disc(), RULE)
        assert rep.margin == pytest.approx(0.5, rel=1e-6)
        assert not violates(rep)

    def test_neg_sq_norm_violation(self):
        rep = submean_test(fields.neg_sq_norm(1), disc(), RULE)
        assert rep.margin == pytest.approx(-0.5, rel=1e-6)
        assert violates(rep)

    def test_harmonic_zero_margin(self):
        z0 = np.array([0.3 + 0.1j, -0.2j])
        cyl = HolomorphicCylinder(z0, random_unitary(3, 2), 0.4, 0.3)
        rep = submean_test(fields.re_linear([1.0, 0.0], 2), cyl, QuadratureRule("tensor-grid", 16384, 0))
        assert abs(rep.margin) <= 1e-10

    def test_center_on_pole_rejected(self):
        with pytest.raises(ValueError, match="pole"):
            submean_test(fields.log_abs(np.zeros(1), 1), disc(0.5), RULE)

    def test_quad_error_needs_coarse_mean(self, monkeypatch):
        calls = sampled_rules(monkeypatch)
        assert submean_test(fields.sq_norm(1), disc(), RULE).quad_error is None
        rep = submean_test(fields.sq_norm(1), disc(), RULE, coarse_mean=0.25)
        assert rep.quad_error == abs(rep.mean - 0.25)
        assert calls == [RULE, RULE]

    def test_quad_error_inf_for_infinite_mean(self):
        rep = submean_test(fields.sq_norm(1), disc(), RULE, coarse_mean=float("-inf"))
        assert np.isfinite(rep.mean)
        assert rep.quad_error == float("inf")
        # -inf off the disc of radius 1/2: the mean is -inf
        hole = fields.ScalarField("hole", 1, lambda z: np.where(np.abs(z[:, 0]) > 0.5, -np.inf, 0.0))
        rep = submean_test(hole, disc(), RULE, coarse_mean=0.0)
        assert rep.mean == float("-inf")
        assert rep.quad_error == float("inf")


class TestClassifyPsh:
    def test_sq_norm_clean(self):
        res = classify_psh(
            fields.sq_norm(2), unit_ball(2), centers=20, cylinders_per_center=5,
            seed=7, budget=4096,
        )
        assert res.verdict == "no-violation-found"
        assert res.cylinders_checked == 100

    def test_saddle_violated_along_second_axis(self):
        res = classify_psh(
            fields.saddle(2.0), unit_ball(2), centers=20, cylinders_per_center=5,
            seed=7, tol=1e-3, budget=4096,
        )
        assert res.verdict == "violated"
        # witness cylinders should be oriented near the z2-line
        worst = min(res.violations, key=lambda rep: rep.margin)
        assert abs(worst.cylinder.frame[1, 0]) > 0.5
        assert worst.margin < -1e-3

    def test_max_log_clean(self):
        res = classify_psh(
            fields.max_log(), unit_ball(2, radius=0.8, center=[0.9, 0.6j]),
            centers=20, cylinders_per_center=5, seed=11, budget=16384,
        )
        assert res.verdict == "no-violation-found"

    def test_deterministic(self):
        kw = dict(centers=5, cylinders_per_center=4, seed=3, tol=1e-3, budget=1024)
        a = classify_psh(fields.neg_sq_norm(1), unit_ball(1), **kw)
        b = classify_psh(fields.neg_sq_norm(1), unit_ball(1), **kw)
        assert a.verdict == b.verdict == "violated"
        assert [r.margin for r in a.violations] == [r.margin for r in b.violations]

    def test_clean_cylinder_draws_one_rule(self, monkeypatch):
        calls = sampled_rules(monkeypatch)
        res = classify_psh(
            fields.sq_norm(2), unit_ball(2), centers=2, cylinders_per_center=3,
            seed=5, budget=1024,
        )
        assert res.verdict == "no-violation-found"
        assert calls == [QuadratureRule("tensor-grid", 1024)] * 6

    def test_candidate_draws_recheck_then_cross_rule(self, monkeypatch):
        calls = sampled_rules(monkeypatch)
        res = classify_psh(
            fields.neg_sq_norm(1), unit_ball(1), centers=1, cylinders_per_center=1,
            seed=3, tol=1e-3, budget=1024,
        )
        assert res.verdict == "violated"
        assert calls == [
            QuadratureRule("tensor-grid", 1024),
            QuadratureRule("tensor-grid", 4096),
            QuadratureRule("quasi-random", 4096, 4),
        ]

    @pytest.mark.parametrize(
        "phi, budget",
        [(fields.neg_sq_norm(1), 1024), (fields.saddle(2.0), 4096)],
        ids=["neg_sq_norm", "saddle"],
    )
    def test_violations_match_embedded_rule_oracle(self, phi, budget):
        # the recheck's estimate is that of its own quarter-budget rule
        seed = 7
        res = classify_psh(
            phi, unit_ball(phi.n), centers=10, cylinders_per_center=3,
            seed=seed, tol=1e-3, budget=budget,
        )
        assert res.verdict == "violated"
        recheck = QuadratureRule("tensor-grid", 4 * budget, seed)
        for rep in res.violations:
            mean, err = mean_with_embedded_error(phi, rep.cylinder, recheck)
            assert rep.mean == mean
            assert rep.margin == mean - phi.value_at(rep.cylinder.center)
            assert rep.quad_error == err

    @pytest.mark.parametrize("k", [1, 3])
    def test_max_violations_stops_at_the_kth(self, k):
        # one cylinder per center, so a scan of p centers runs the first p cylinders
        # of a longer one; the k-th violation sits at position p exactly when p - 1
        # cylinders hold k - 1 violations and p hold k
        kw = dict(cylinders_per_center=1, seed=0, tol=1e-3, budget=1024)
        phi = fields.saddle(2.0)
        res = classify_psh(phi, unit_ball(2), 40, max_violations=k, **kw)
        assert len(res.violations) == k
        p = res.cylinders_checked
        head = classify_psh(phi, unit_ball(2), p, **kw)
        assert [v.margin for v in head.violations] == [v.margin for v in res.violations]
        assert len(classify_psh(phi, unit_ball(2), p - 1, **kw).violations) == k - 1

    def test_empty_budget_rejected(self):
        with pytest.raises(ValueError, match="empty scan"):
            classify_psh(fields.sq_norm(1), unit_ball(1), 0, 1, seed=0, budget=4096)

    def test_margins_bounded_by_quadrature_error(self):
        # sub-mean-value margins of a psh field stay above -(error estimate)
        # across a large randomized cylinder sweep
        phi = fields.sq_norm(2)
        rng = np.random.default_rng(17)
        for _ in range(200):
            center = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            cyl = HolomorphicCylinder(
                center, random_unitary(int(rng.integers(1 << 31)), 2),
                float(rng.uniform(0.05, 0.4)), float(rng.uniform(0.05, 0.4)),
            )
            coarse = cylinder_mean(phi, cyl, QuadratureRule("tensor-grid", 256, 0))
            rep = submean_test(
                phi, cyl, QuadratureRule("tensor-grid", 1024, 0), coarse_mean=coarse
            )
            assert rep.margin >= -rep.quad_error - 1e-12


class TestLineDiscMean:
    def test_field_constant_in_s_directions(self):
        # phi depends only on z1: every cylinder mean equals the disc mean
        phi = fields.ScalarField("re_z1", 2, lambda z: np.real(z[:, 0]))
        means = line_disc_mean(
            phi, np.zeros(2), np.array([1.0, 0.0]), 0.5, [0.5, 0.25], RULE
        )
        assert np.allclose(means, means[-1], atol=1e-12)

    def test_sq_norm_degeneration(self):
        s_seq = [0.5**k for k in range(1, 7)]
        means = line_disc_mean(
            fields.sq_norm(2), np.zeros(2), np.array([1.0, 0.0]), 1.0, s_seq, RULE
        )
        # limit is the 1-D disc mean 1/2; convergence at least O(s)
        assert means[-1] == pytest.approx(0.5, rel=1e-8)
        gaps = [abs(m - means[-1]) for m in means[:-1]]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a / 1.8 + 1e-12
        assert abs(means[-2] - means[-1]) < 1e-3

    def test_log_abs_line_limit(self):
        means = line_disc_mean(
            fields.log_abs(np.zeros(2), 2), np.array([1.0, 0.0]), np.array([1.0, 0.0]),
            0.5, [0.5**k for k in range(1, 6)], RULE,
        )
        assert means[-1] == pytest.approx(0.0, abs=1e-6)
