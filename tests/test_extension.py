import math

import numpy as np
import pytest

from pshlab import fields
from pshlab.bochner import zero_field
from pshlab.errors import ConsistencyError, DegenerateWeightError, SingularGramError
from pshlab.extension import (
    _monomial_values,
    best_extension_constant,
    coarse_extension_bound,
    constant_one,
    exp_linear,
    jensen_chain_check,
    monomial_exponents,
    optimal_extension_margin,
    polynomial,
    solve_gram,
)
from pshlab.geometry import (
    HolomorphicCylinder, QuadratureRule, random_unitary, sample_cylinder, seeded_frame,
)

RULE = QuadratureRule("tensor-grid", 4096, seed=0)


def disc(r=1.0):
    return HolomorphicCylinder(np.zeros(1, dtype=complex), np.eye(1), r)


def two_re_z():
    return fields.re_linear(np.array([2.0 + 0.0j]), 1)


def disc_at(center, r=0.7, s=0.9, frame_seed=3):
    """A cylinder off the origin, so that z0 = cyl.center is not 0."""
    center = np.asarray(center, dtype=complex)
    frame = random_unitary(frame_seed, center.size) if center.size > 1 else np.eye(1)
    return HolomorphicCylinder(center, frame, r, s)


CENTERS = (np.array([0.3 + 0.2j]), np.array([0.3 - 0.2j, -0.1 + 0.4j]))


class TestCandidates:
    def test_exp_normalized(self):
        z0 = np.array([0.3 + 0.2j])
        f = exp_linear(np.array([2.0 + 1.0j]), z0)
        assert abs(f(z0[None, :])[0] - 1.0) <= 1e-12

    def test_poly_constant(self):
        f = constant_one(np.zeros(1))
        assert np.allclose(f(np.array([[0.5 + 0.5j]])), 1.0)

    @pytest.mark.parametrize("z0", CENTERS, ids=["n1", "n2"])
    def test_builders_equal_the_closed_forms(self, z0):
        # the expressions of the tagged candidate that the evaluators replaced, at a rule's nodes
        n = z0.size
        nodes = sample_cylinder(disc_at(z0), RULE).nodes
        a = np.array([0.7 - 0.3j, 1.1 + 0.2j])[:n]
        assert np.array_equal(exp_linear(a, z0)(nodes), np.exp(nodes @ a + -complex(z0 @ a)))
        coeffs = {e: 0.3 * sum(e) - 0.2j * e[0] + (1.0 if sum(e) == 0 else 0.0)
                  for e in monomial_exponents(n, 3)}
        exps = tuple(sorted(coeffs))
        arr = np.array([coeffs[e] for e in exps], dtype=complex)
        closed = _monomial_values(nodes - z0, exps) @ arr
        assert np.array_equal(polynomial(coeffs, z0)(nodes), closed)
        ones = _monomial_values(nodes - z0, ((0,) * n,)) @ np.array([1.0 + 0.0j])
        assert np.array_equal(constant_one(z0)(nodes), ones)
        assert np.all(ones == 1.0)


# candidates with f(0) != 1, for the unit disc at 0
OFF_CENTER = {
    "poly": polynomial({(0,): 2.0}, np.zeros(1)),
    "exp": exp_linear(np.array([1.0 + 0.0j]), np.array([0.5 + 0.0j])),
    "poly_elsewhere": polynomial({(0,): 1.0, (1,): 1.0}, np.array([0.25 + 0.0j])),
}


def entry_points(phi, cyl):
    """The three candidate entry points as functions of the candidate alone."""
    return {
        "optimal_extension_margin": lambda f: optimal_extension_margin(phi, cyl, f, 2.0, RULE),
        "jensen_chain_check": lambda f: jensen_chain_check(phi, cyl, f, 2.0, RULE),
        "coarse_extension_bound": lambda f: coarse_extension_bound(phi, cyl, f, 0.0, 4, 2.0, RULE),
    }


ENTRY_NAMES = sorted(entry_points(None, None))


class TestNormalizationAtTheCenter:
    @pytest.mark.parametrize("entry", ENTRY_NAMES)
    @pytest.mark.parametrize("kind", sorted(OFF_CENTER))
    def test_entry_points_refuse_f_not_one_at_the_center(self, entry, kind):
        with pytest.raises(ValueError, match="f\\(z0\\) = 1"):
            entry_points(fields.sq_norm(1), disc())[entry](OFF_CENTER[kind])

    @pytest.mark.parametrize("entry", ENTRY_NAMES)
    @pytest.mark.parametrize("z0", CENTERS, ids=["n1", "n2"])
    def test_z0_is_the_cylinders_center(self, entry, z0):
        # a candidate normalized at an off-origin center passes there and fails at 0
        n = z0.size
        f = exp_linear(np.array([0.5 + 0.5j, -0.25j])[:n], z0)
        entry_points(fields.sq_norm(n), disc_at(z0))[entry](f)
        with pytest.raises(ValueError, match="f\\(z0\\) = 1"):
            entry_points(fields.sq_norm(n), disc_at(np.zeros(n)))[entry](f)

    @pytest.mark.parametrize("z0", CENTERS, ids=["n1", "n2"])
    def test_best_constant_is_normalized_at_the_center(self, z0):
        f_star, value = best_extension_constant(fields.sq_norm(z0.size), disc_at(z0), 3, RULE)
        assert f_star(z0[None, :])[0] == 1.0
        rep = optimal_extension_margin(fields.sq_norm(z0.size), disc_at(z0), f_star, 2.0, RULE)
        assert rep.lhs.value == pytest.approx(value.value, rel=1e-12)

    def test_rhs_is_the_weight_at_the_center(self):
        z0 = CENTERS[1]
        rep = optimal_extension_margin(fields.sq_norm(2), disc_at(z0), constant_one(z0), 2.0, RULE)
        assert rep.rhs.value == math.exp(-fields.sq_norm(2).value_at(z0))


class TestOptimalMargin:
    def test_constant_weight_equality(self):
        const = fields.ScalarField("c", 1, lambda z: np.full(z.shape[0], 0.7))
        rep = optimal_extension_margin(const, disc(), constant_one(np.zeros(1)), 2.0, RULE)
        assert rep.lhs.value == pytest.approx(math.exp(-0.7), rel=1e-12)
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_pluriharmonic_cancellation(self, p):
        # |e^{2z/p}|^p = e^{2 Re z} cancels the weight exactly
        phi = two_re_z()
        f = exp_linear(np.array([2.0 / p]), np.zeros(1))
        rep = optimal_extension_margin(phi, disc(), f, p, RULE)
        assert rep.lhs.value == pytest.approx(1.0, rel=1e-10)
        assert rep.rhs.value == pytest.approx(1.0, rel=1e-12)
        assert abs(rep.margin) <= 1e-10

    def test_concave_weight_fails(self):
        # oracle: (1/pi) int e^{|z|^2} over the unit disc = e - 1 > 1
        rep = optimal_extension_margin(
            fields.neg_sq_norm(1), disc(), constant_one(np.zeros(1)), 2.0, RULE
        )
        assert rep.lhs.value == pytest.approx(math.e - 1.0, rel=1e-9)
        assert rep.margin < 0.0


class TestJensenChain:
    def test_constant_candidate(self):
        res1, res2, concl = jensen_chain_check(
            fields.sq_norm(1), disc(), constant_one(np.zeros(1)), 2.0, RULE
        )
        assert res1 >= -1e-10
        assert res2 == pytest.approx(0.0, abs=1e-12)
        assert concl == pytest.approx(0.5, rel=1e-8)

    def test_pluriharmonic_equalities(self):
        phi = two_re_z()
        f = exp_linear(np.array([1.0 + 0.0j]), np.zeros(1))  # 2z/p at p=2
        res1, res2, concl = jensen_chain_check(phi, disc(), f, 2.0, RULE)
        assert abs(res1) <= 1e-10
        assert abs(concl) <= 1e-10

    def test_harmonic_log_candidate(self):
        # f = z - a with a outside the closed disc: log|f| harmonic, so
        # residual_2 = mean(p log|z-a|) - p log|a| = 0 by mean-value equality
        a = 1.7 + 0.4j
        f = polynomial({(0,): 1.0, (1,): -1.0 / a}, np.zeros(1))  # (a - z)/a
        res1, res2, _ = jensen_chain_check(
            fields.sq_norm(1), disc(), f, 2.0, RULE
        )
        assert res1 >= -1e-10
        assert res2 == pytest.approx(0.0, abs=1e-8)

    def test_pole_at_the_center_raises(self):
        # phi(z0) = -inf: the conclusion margin mean(phi) - phi(z0) would be +inf
        with pytest.raises(ValueError, match="center lies on the pole set"):
            jensen_chain_check(fields.log_abs(np.zeros(1), 1), disc(), constant_one(np.zeros(1)), 2.0, RULE)

    def test_vanishing_candidate_rejected(self):
        # f = z vanishes at the center: normalization fails before integration
        with pytest.raises(ValueError):
            jensen_chain_check(
                fields.sq_norm(1), disc(),
                polynomial({(1,): 1.0}, np.zeros(1)), 2.0, RULE,
            )

    def test_large_radius_matches_logsumexp(self):
        # at r = 30 the linear mean of |f|^p e^{-phi} is about e^893
        from scipy.special import logsumexp

        cyl = disc(30.0)
        p = 3.0
        res1, _, _ = jensen_chain_check(
            fields.neg_sq_norm(1), cyl, constant_one(np.zeros(1)), p, RULE
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
                zero, disc(r), constant_one(np.zeros(1)), 0.0, m, 2.0, RULE
            )
            assert b_m == pytest.approx(0.0, abs=1e-10)
            assert b_tilde == pytest.approx(0.0, abs=1e-10)

    def test_pluriharmonic_flat_integrand(self):
        phi = two_re_z()
        for m in (1, 2, 8):
            f = exp_linear(np.array([float(m)]), np.zeros(1))  # 2mz/p at p=2
            b_m, b_tilde = coarse_extension_bound(
                phi, disc(), f, 0.0, m, 2.0, RULE
            )
            assert b_m == pytest.approx(-math.log(math.pi) / m, abs=1e-9)
        assert b_tilde == pytest.approx(-math.log(math.pi) / 8, abs=1e-8)

    def test_subexponential_constants(self):
        phi = fields.sq_norm(1)
        vals = []
        for m in (4, 16, 64):
            _, b_tilde = coarse_extension_bound(
                phi, disc(), constant_one(np.zeros(1)),
                math.sqrt(m), m, 2.0, RULE,
            )
            vals.append(b_tilde)
        mean_phi = 0.5
        gaps = [abs(v - mean_phi) for v in vals]
        assert gaps[-1] < gaps[0]
        assert gaps[-1] <= (1.0 / math.sqrt(64)) + math.log(math.pi) / 64 + 1e-9

    def test_zero_at_a_coarse_node_breaks_the_relaxation(self):
        # b_m <= b~_m is Jensen plus mean(p log|f|) >= 0, the sub-mean value of
        # log|f| with f(z0) = 1, which a rule keeps only up to its error.  On the
        # 16-node rule f = 1 - z/a with a at a node has the discrete mean -inf, and
        # at p = 0.1 the mean of |f|^p is below 1: b_m > b~_m for phi = 0.  No node
        # of the 4096-node rule is a zero of f.
        coarse = QuadratureRule("tensor-grid", 16)
        a = sample_cylinder(disc(), coarse).nodes[0, 0]
        f = polynomial({(0,): 1.0, (1,): -1.0 / a}, np.zeros(1))
        with pytest.raises(ConsistencyError, match="^Jensen relaxation violated: b_m = "):
            coarse_extension_bound(zero_field(1), disc(), f, 0.0, 1, 0.1, coarse)
        b_m, b_tilde = coarse_extension_bound(zero_field(1), disc(), f, 0.0, 1, 0.1, RULE)
        assert b_m <= b_tilde


class TestBestExtensionConstant:
    def test_flat_weight_exact_one(self):
        zero = fields.ScalarField("zero", 1, lambda z: np.zeros(z.shape[0]))
        for degree in (2, 4, 8):
            f_star, value = best_extension_constant(zero, disc(), degree, RULE)
            assert value.value == pytest.approx(1.0, abs=1e-10)
        # the optimal polynomial is the constant: f* = 1 at the rule's nodes
        nodes = sample_cylinder(disc(), RULE).nodes
        assert np.max(np.abs(f_star(nodes) - 1.0)) <= 1e-9

    def test_concave_weight_threshold(self):
        f_star, value = best_extension_constant(
            fields.neg_sq_norm(1), disc(), 8, RULE
        )
        assert value.value == pytest.approx(math.e - 1.0, rel=1e-6)
        assert value.value > 1.0

    def test_pluriharmonic_truncated_witness(self):
        phi = two_re_z()
        _, value = best_extension_constant(phi, disc(), 8, RULE)
        assert value.value == pytest.approx(1.0, abs=1e-4)

    def test_value_nonincreasing_in_degree(self):
        phi = two_re_z()
        values = [
            best_extension_constant(phi, disc(), d, RULE)[1].value
            for d in (2, 4, 8)
        ]
        assert values[0] >= values[1] >= values[2] - 1e-12

    def test_brute_force_oracle(self):
        # independent oracle: direct least-squares over the same node set
        phi = two_re_z()
        cyl = disc()
        sample = sample_cylinder(cyl, RULE)
        w = sample.weights * np.exp(-phi(sample.nodes)) / cyl.volume
        exps = monomial_exponents(1, 4)
        mono = _monomial_values(sample.nodes, exps)
        scaled = mono * np.sqrt(w)[:, None]
        sol, *_ = np.linalg.lstsq(scaled[:, 1:], -scaled[:, 0], rcond=None)
        v = np.concatenate([[1.0], sol])
        oracle = float(np.linalg.norm(scaled @ v) ** 2)
        _, value = best_extension_constant(phi, cyl, 4, RULE)
        assert value.value == pytest.approx(oracle, rel=1e-9)

    def test_degenerate_weight(self):
        deep = fields.ScalarField(
            "deep", 1, lambda z: np.where(np.abs(z[:, 0]) < 0.5, -np.inf, 0.0)
        )
        with pytest.raises(DegenerateWeightError):
            best_extension_constant(deep, disc(), 2, RULE)

    @pytest.mark.parametrize("z0", CENTERS, ids=["n1", "n2"])
    def test_minimizer_is_orthogonal_to_the_nonconstant_monomials(self, z0):
        # f* = 1 - P(1): its L^2(e^{-phi}) pairing with every monomial of positive degree,
        # taken in the cylinder's coordinates on the rule's nodes, vanishes
        n, cyl = z0.size, disc_at(z0)
        phi = fields.neg_sq_norm(n)
        f_star, _ = best_extension_constant(phi, cyl, 4, RULE)
        sample = sample_cylinder(cyl, RULE)
        w = sample.weights * np.exp(-phi(sample.nodes))
        radii = np.array([cyl.r] + [cyl.s] * (n - 1))
        t = (sample.nodes - z0) @ cyl.frame.conj() / radii
        mono = _monomial_values(t, monomial_exponents(n, 4))[:, 1:]
        f = f_star(sample.nodes)
        pair = mono.conj().T @ (w * f)
        norms = np.sqrt(np.real(np.dot(w, np.abs(f) ** 2)) * (np.abs(mono) ** 2).T @ w)
        assert np.max(np.abs(pair) / norms) <= 1e-12

    @pytest.mark.parametrize("z0", CENTERS, ids=["n1", "n2"])
    def test_value_is_the_weighted_sum_of_the_minimizer(self, z0):
        n, cyl = z0.size, disc_at(z0)
        phi = fields.neg_sq_norm(n)
        f_star, value = best_extension_constant(phi, cyl, 4, RULE)
        sample = sample_cylinder(cyl, RULE)
        w = sample.weights * np.exp(-phi(sample.nodes)) / cyl.volume
        assert value.value == pytest.approx(np.dot(w, np.abs(f_star(sample.nodes)) ** 2),
                                            rel=1e-13)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_value_equals_the_constrained_gram_form_at_n2(self, seed):
        # the other formulation of the same minimum: the full Gram matrix G, the
        # stationarity system on its non-constant block, and the value v^H G v
        phi = fields.cross()
        cyl = HolomorphicCylinder(CENTERS[1], seeded_frame(seed, 2), 0.7, 0.9)
        sample = sample_cylinder(cyl, RULE)
        w = sample.weights * np.exp(-phi(sample.nodes)) / cyl.volume
        t = (sample.nodes - cyl.center) @ cyl.frame.conj() / np.array([cyl.r, cyl.s])
        mono = _monomial_values(t, monomial_exponents(2, 6))
        gram = (mono.conj().T * w) @ mono
        v = np.concatenate([[1.0], np.linalg.solve(gram[1:, 1:], -gram[1:, 0])])
        oracle = float(np.real(np.conj(v) @ gram @ v))
        _, value = best_extension_constant(phi, cyl, 6, RULE)
        assert value.value == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize("gram", [[[1.0, 1.0], [1.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]])
    def test_singular_gram_raises(self, gram):
        # an exactly singular matrix and one whose solve is not finite: no ridge retry
        with pytest.raises(SingularGramError, match="Gram"):
            solve_gram(np.array(gram), np.array([1.0, 0.0]))


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
        _, res2, _ = jensen_chain_check(fields.sq_norm(1), disc(), f, 2.0, RULE)
        assert res2 == pytest.approx(0.0, abs=1e-8)

    def test_positive_margin_implies_submean(self):
        # whenever the best L^2 witness has margin >= 0, the chain's
        # conclusion margin mean(phi) - phi(z0) is >= -1e-6
        for phi in (fields.sq_norm(1), two_re_z(), fields.log1p_sq(1)):
            f_star, _ = best_extension_constant(phi, disc(), 6, RULE)
            rep = optimal_extension_margin(phi, disc(), f_star, 2.0, RULE)
            if rep.margin >= 0.0:
                assert rep.conclusion_margin >= -1e-6
