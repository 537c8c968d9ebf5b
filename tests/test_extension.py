import math

import numpy as np
import pytest

from pshlab import fields
from pshlab.errors import DegenerateWeightError
from pshlab.extension import (
    best_extension_constant,
    coarse_extension_bound,
    constant_one,
    exp_linear,
    jensen_chain_check,
    monomial_exponents,
    optimal_extension_margin,
    polynomial,
)
from pshlab.geometry import HolomorphicCylinder, QuadratureRule

RULE = QuadratureRule("tensor-grid", 4096, seed=0)


def disc(r=1.0):
    return HolomorphicCylinder(np.zeros(1, dtype=complex), np.eye(1), r)


def two_re_z():
    return fields.re_linear(np.array([2.0 + 0.0j]), 1)


class TestCandidates:
    def test_exp_normalized(self):
        f = exp_linear(np.array([2.0 + 1.0j]), np.array([0.3 + 0.2j]))
        assert abs(f.evaluate(f.z0[None, :])[0] - 1.0) <= 1e-12

    def test_poly_constant(self):
        f = constant_one(np.zeros(1))
        assert np.allclose(f.evaluate(np.array([[0.5 + 0.5j]])), 1.0)

    def test_poly_normalization_enforced(self):
        with pytest.raises(ValueError, match="f\\(z0\\) = 1"):
            polynomial({(0,): 2.0}, np.zeros(1))


class TestOptimalMargin:
    def test_constant_weight_equality(self):
        const = fields.ScalarField("c", 1, lambda z: np.full(z.shape[0], 0.7))
        rep = optimal_extension_margin(const, np.zeros(1), disc(), constant_one(np.zeros(1)), 2.0, RULE)
        assert rep.lhs == pytest.approx(math.exp(-0.7), rel=1e-12)
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_pluriharmonic_cancellation(self, p):
        # |e^{2z/p}|^p = e^{2 Re z} cancels the weight exactly
        phi = two_re_z()
        f = exp_linear(np.array([2.0 / p]), np.zeros(1))
        rep = optimal_extension_margin(phi, np.zeros(1), disc(), f, p, RULE)
        assert rep.lhs == pytest.approx(1.0, rel=1e-10)
        assert rep.rhs == pytest.approx(1.0, rel=1e-12)
        assert abs(rep.margin) <= 1e-10

    def test_concave_weight_fails(self):
        # oracle: (1/pi) int e^{|z|^2} over the unit disc = e - 1 > 1
        rep = optimal_extension_margin(
            fields.neg_sq_norm(1), np.zeros(1), disc(), constant_one(np.zeros(1)), 2.0, RULE
        )
        assert rep.lhs == pytest.approx(math.e - 1.0, rel=1e-9)
        assert rep.margin < 0.0


class TestJensenChain:
    def test_constant_candidate(self):
        res1, res2, concl = jensen_chain_check(
            fields.sq_norm(1), np.zeros(1), disc(), constant_one(np.zeros(1)), 2.0, RULE
        )
        assert res1 >= -1e-10
        assert res2 == pytest.approx(0.0, abs=1e-12)
        assert concl == pytest.approx(0.5, rel=1e-8)

    def test_pluriharmonic_equalities(self):
        phi = two_re_z()
        f = exp_linear(np.array([1.0 + 0.0j]), np.zeros(1))  # 2z/p at p=2
        res1, res2, concl = jensen_chain_check(phi, np.zeros(1), disc(), f, 2.0, RULE)
        assert abs(res1) <= 1e-10
        assert abs(concl) <= 1e-10

    def test_harmonic_log_candidate(self):
        # f = z - a with a outside the closed disc: log|f| harmonic, so
        # residual_2 = mean(p log|z-a|) - p log|a| = 0 by mean-value equality
        a = 1.7 + 0.4j
        f = polynomial({(0,): 1.0, (1,): -1.0 / a}, np.zeros(1))  # (a - z)/a
        res1, res2, _ = jensen_chain_check(
            fields.sq_norm(1), np.zeros(1), disc(), f, 2.0, RULE
        )
        assert res1 >= -1e-10
        assert res2 == pytest.approx(0.0, abs=1e-8)

    def test_vanishing_candidate_rejected(self):
        # f = z vanishes at the center: normalization fails before integration
        with pytest.raises(ValueError):
            jensen_chain_check(
                fields.sq_norm(1), np.zeros(1), disc(),
                polynomial({(1,): 1.0}, np.zeros(1)), 2.0, RULE,
            )

    def test_large_radius_matches_logsumexp(self):
        # at r = 30 the linear mean of |f|^p e^{-phi} is about e^893
        from scipy.special import logsumexp

        from pshlab.geometry import sample_cylinder

        cyl = disc(30.0)
        p = 3.0
        res1, _, _ = jensen_chain_check(
            fields.neg_sq_norm(1), np.zeros(1), cyl, constant_one(np.zeros(1)), p, RULE
        )
        sample = sample_cylinder(cyl, RULE)
        x = np.abs(sample.nodes[:, 0]) ** 2  # log(|f|^p e^{-phi}) for f = 1
        ref = -np.dot(x, sample.weights) / cyl.volume + logsumexp(x, b=sample.weights / cyl.volume)
        assert res1 == pytest.approx(ref, rel=1e-12)


class TestCoarseExtension:
    def test_unit_volume_flat(self):
        r = 1.0 / math.sqrt(math.pi)  # mu(P) = 1
        zero = fields.ScalarField(
            "zero", 1, lambda z: np.zeros(z.shape[0]),
            grad=lambda z: np.zeros((z.shape[0], 1), dtype=complex),
            hess=lambda z: np.zeros((z.shape[0], 1, 1), dtype=complex),
        )
        for m in (1, 4, 32):
            b_m, b_tilde = coarse_extension_bound(
                zero, np.zeros(1), disc(r), constant_one(np.zeros(1)), 0.0, m, 2.0, RULE
            )
            assert b_m == pytest.approx(0.0, abs=1e-10)
            assert b_tilde == pytest.approx(0.0, abs=1e-10)

    def test_pluriharmonic_flat_integrand(self):
        phi = two_re_z()
        for m in (1, 2, 8):
            f = exp_linear(np.array([float(m)]), np.zeros(1))  # 2mz/p at p=2
            b_m, b_tilde = coarse_extension_bound(
                phi, np.zeros(1), disc(), f, 0.0, m, 2.0, RULE
            )
            assert b_m == pytest.approx(-math.log(math.pi) / m, abs=1e-9)
        assert b_tilde == pytest.approx(-math.log(math.pi) / 8, abs=1e-8)

    def test_subexponential_constants(self):
        phi = fields.sq_norm(1)
        vals = []
        for m in (4, 16, 64):
            _, b_tilde = coarse_extension_bound(
                phi, np.zeros(1), disc(), constant_one(np.zeros(1)),
                math.sqrt(m), m, 2.0, RULE,
            )
            vals.append(b_tilde)
        mean_phi = 0.5
        gaps = [abs(v - mean_phi) for v in vals]
        assert gaps[-1] < gaps[0]
        assert gaps[-1] <= (1.0 / math.sqrt(64)) + math.log(math.pi) / 64 + 1e-9


class TestBestExtensionConstant:
    def test_flat_weight_exact_one(self):
        zero = fields.ScalarField("zero", 1, lambda z: np.zeros(z.shape[0]))
        for degree in (2, 4, 8):
            f_star, value = best_extension_constant(zero, np.zeros(1), disc(), degree, RULE)
            assert value == pytest.approx(1.0, abs=1e-10)
        # the optimal polynomial is the constant
        assert abs(f_star.coefficients[0] - 1.0) <= 1e-10
        assert np.max(np.abs(f_star.coefficients[1:])) <= 1e-9

    def test_concave_weight_threshold(self):
        f_star, value = best_extension_constant(
            fields.neg_sq_norm(1), np.zeros(1), disc(), 8, RULE
        )
        assert value == pytest.approx(math.e - 1.0, rel=1e-6)
        assert value > 1.0

    def test_pluriharmonic_truncated_witness(self):
        phi = two_re_z()
        _, value = best_extension_constant(phi, np.zeros(1), disc(), 8, RULE)
        assert value == pytest.approx(1.0, abs=1e-4)

    def test_value_nonincreasing_in_degree(self):
        phi = two_re_z()
        values = [
            best_extension_constant(phi, np.zeros(1), disc(), d, RULE)[1]
            for d in (2, 4, 8)
        ]
        assert values[0] >= values[1] >= values[2] - 1e-12

    def test_brute_force_oracle(self):
        # independent oracle: direct least-squares over the same node set
        phi = two_re_z()
        from pshlab.extension import _monomial_values, monomial_exponents
        from pshlab.geometry import sample_cylinder

        cyl = disc()
        sample = sample_cylinder(cyl, RULE)
        w = sample.weights * np.exp(-phi(sample.nodes)) / cyl.volume
        exps = monomial_exponents(1, 4)
        mono = _monomial_values(sample.nodes, exps)
        scaled = mono * np.sqrt(w)[:, None]
        sol, *_ = np.linalg.lstsq(scaled[:, 1:], -scaled[:, 0], rcond=None)
        v = np.concatenate([[1.0], sol])
        oracle = float(np.linalg.norm(scaled @ v) ** 2)
        _, value = best_extension_constant(phi, np.zeros(1), cyl, 4, RULE)
        assert value == pytest.approx(oracle, rel=1e-9)

    def test_degenerate_weight(self):
        deep = fields.ScalarField(
            "deep", 1, lambda z: np.where(np.abs(z[:, 0]) < 0.5, -np.inf, 0.0)
        )
        with pytest.raises(DegenerateWeightError):
            best_extension_constant(deep, np.zeros(1), disc(), 2, RULE)


class TestMonomials:
    def test_counts(self):
        assert len(monomial_exponents(1, 8)) == 9
        assert len(monomial_exponents(2, 3)) == 10

    def test_constant_first(self):
        assert monomial_exponents(2, 4)[0] == (0, 0)


class TestInvariants:
    def test_exp_candidate_harmonic_equality(self):
        # residual_2 = mean(p log|e^{<a,z>}|) over a centered cylinder is the
        # mean of a pluriharmonic function, which equals its center value 0
        f = exp_linear(np.array([0.7 - 0.3j]), np.zeros(1))
        _, res2, _ = jensen_chain_check(fields.sq_norm(1), np.zeros(1), disc(), f, 2.0, RULE)
        assert res2 == pytest.approx(0.0, abs=1e-8)

    def test_positive_margin_implies_submean(self):
        # whenever the best L^2 witness has margin >= 0, the chain's
        # conclusion margin mean(phi) - phi(z0) is >= -1e-6
        for phi in (fields.sq_norm(1), two_re_z(), fields.log1p_sq(1)):
            f_star, _ = best_extension_constant(phi, np.zeros(1), disc(), 6, RULE)
            rep = optimal_extension_margin(phi, np.zeros(1), disc(), f_star, 2.0, RULE)
            if rep.margin >= 0.0:
                assert rep.conclusion_margin >= -1e-6
