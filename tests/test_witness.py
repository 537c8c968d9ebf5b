import math

import numpy as np
import pytest
from scipy import integrate as sint

from pshlab import fields
from pshlab.bochner import dbar_01, make_grid, scalar_dbar
from pshlab.errors import ContinuityRequiredError, MetricNotPositiveError
from pshlab.geometry import DomainBox, ball_volume, unit_ball
from pshlab.witness import (
    _psi_delta_hess,
    _psi_delta_norm_sq,
    alpha_from_f,
    build_alpha_eps,
    build_psi_delta,
    build_psi_s,
    build_witness_form,
    coarse_constant_growth,
    coarse_rhs_bound,
    estimate_functional_E,
    form_norm_sq,
    make_cutoff,
    metric_quadratic,
    modulus_of_continuity,
    scan_sharp_witness,
)


class TestCutoff:
    def test_flat_top(self):
        chi = make_cutoff()
        assert chi(0.1) == 1.0
        assert chi(0.25) == 1.0

    def test_support_end(self):
        chi = make_cutoff()
        assert chi(1.0) == 0.0
        assert chi(1.5) == 0.0

    def test_slope_bound_exactly_two(self):
        chi = make_cutoff()
        t = np.linspace(0.0, 1.2, 200001)
        assert np.max(np.abs(chi.deriv(t))) == pytest.approx(2.0, abs=1e-9)

    def test_monotone(self):
        chi = make_cutoff()
        t = np.linspace(0.25, 1.0, 1001)
        assert np.all(np.diff(chi(t)) <= 1e-15)

    def test_deriv_matches_fd(self):
        chi = make_cutoff()
        t = np.linspace(0.05, 1.1, 97)
        h = 1e-6
        fd = (chi(t + h) - chi(t - h)) / (2 * h)
        assert np.allclose(chi.deriv(t), fd, atol=1e-5)


class TestWitnessForm:
    def setup_method(self):
        self.z0 = np.array([0.1 + 0.2j, -0.3 + 0.0j])
        self.xi = np.array([0.6, 0.8j])
        self.chi = make_cutoff()
        self.nu, self.f = build_witness_form(self.z0, self.xi, 0.5, self.chi)

    def test_equals_xi_at_center(self):
        vals = self.f.evaluate(self.z0[None, :])
        assert np.allclose(vals[:, 0], self.xi, atol=1e-14)

    def test_constant_on_inner_ball(self):
        rng = np.random.default_rng(1)
        d = rng.standard_normal((32, 4))
        d = d[:, 0:2] + 1j * d[:, 2:]
        d *= (0.24 * rng.uniform(size=32) ** 0.25 / np.linalg.norm(d, axis=1))[:, None]
        pts = self.z0 + d
        vals = self.f.evaluate(pts)
        assert np.allclose(vals, self.xi[:, None] * np.ones(32), atol=1e-14)

    def test_vanishes_outside(self):
        pts = self.z0 + np.array([[0.51, 0.0], [0.0, 0.6], [0.5, 0.5]], dtype=complex)
        vals = self.f.evaluate(pts)
        assert np.max(np.abs(vals)) == 0.0

    def test_is_dbar_closed(self):
        # the cutoff is C^1: classical derivatives jump on the transition
        # rings t = 1/4 and t = 1, so closedness is asserted off the rings
        # pointwise and integrally overall
        grid = make_grid(DomainBox("ball", self.z0, np.array([0.75])), 28)
        out = dbar_01(self.f, grid)
        d = np.linalg.norm(grid.points - self.z0, axis=1)
        h = float(np.max(grid.spacing))
        ring = (np.abs(d - 0.25) < 3 * h) | (np.abs(d - 0.5) < 3 * h)
        assert np.max(np.abs(out)[:, ~ring]) <= 1e-12
        assert float(np.dot(np.abs(out[0]), grid.weights)) <= 0.5

    def test_matches_dbar_of_nu(self):
        grid = make_grid(DomainBox("ball", self.z0, np.array([0.75])), 28)
        nu_vals = self.nu(grid.points)
        fd = scalar_dbar(nu_vals, grid)
        direct = self.f.evaluate(grid.points)
        d = np.linalg.norm(grid.points - self.z0, axis=1)
        h = float(np.max(grid.spacing))
        ring = (np.abs(d - 0.25) < 3 * h) | (np.abs(d - 0.5) < 3 * h)
        mask = grid.interior_mask(3) & ~ring
        assert np.max(np.abs(fd - direct)[:, mask]) <= 1e-12


class TestPsiS:
    def test_center_value(self):
        psi = build_psi_s(np.array([0.2j]), 0.5, 3.0)
        assert psi.value_at(np.array([0.2j])) == pytest.approx(-3.0 * 0.25 / 4.0)

    def test_hessian_scaled_identity(self):
        psi = build_psi_s(np.zeros(2), 1.0, 7.0)
        h = psi.hess(np.array([[0.3, 0.1j]]))[0]
        assert np.allclose(h, 7.0 * np.eye(2))

    def test_zero_on_half_radius_sphere(self):
        psi = build_psi_s(np.zeros(1), 1.0, 5.0)
        assert psi.value_at(np.array([0.5 + 0.0j])) == pytest.approx(0.0, abs=1e-14)

    def test_nonpositive_inside(self):
        psi = build_psi_s(np.zeros(1), 1.0, 5.0)
        pts = 0.49 * np.exp(1j * np.linspace(0, 2 * math.pi, 17))[:, None]
        assert np.all(psi(pts) <= 1e-12)


class TestAlphaFromF:
    def test_scaled_identity(self):
        f = np.array([1.0 + 1j, 2.0])
        a = alpha_from_f(f, 4.0 * np.eye(2))
        assert np.allclose(a, f / 4.0)

    def test_diagonal(self):
        f = np.array([2.0, 3.0j])
        a = alpha_from_f(f, np.diag([2.0, 6.0]))
        assert np.allclose(a, [1.0, 0.5j])

    def test_random_2x2_adjugate_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = x @ x.conj().T + 0.5 * np.eye(2)
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        # adjugate-formula inverse for 2x2
        det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
        binv = np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]]) / det
        expected = f @ binv  # row-vector times inverse
        a = alpha_from_f(f, b)
        assert np.allclose(a, expected, atol=1e-12)

    def test_energy_identity(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = x @ x.conj().T + 0.5 * np.eye(2)
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = alpha_from_f(f, b)
        assert metric_quadratic(b, a) == pytest.approx(form_norm_sq(b, f), rel=1e-10)

    def test_not_positive(self):
        with pytest.raises(MetricNotPositiveError, match="metric not positive"):
            alpha_from_f(np.array([1.0]), np.array([[-1.0]]))

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_metric_equals_batched(self, n):
        rng = np.random.default_rng(11 + n)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = x @ x.conj().T + 0.5 * np.eye(n)
        f = rng.standard_normal((257, n)) + 1j * rng.standard_normal((257, n))
        batched = alpha_from_f(f, np.broadcast_to(b, (257, n, n)))
        assert np.array_equal(alpha_from_f(f, b), batched)

    def test_one_metric_not_positive(self):
        f = np.ones((5, 2), dtype=complex)
        with pytest.raises(MetricNotPositiveError, match="metric not positive"):
            alpha_from_f(f, np.diag([1.0, -0.5]))


class TestEstimateFunctional:
    def test_zero_form(self):
        grid = make_grid(unit_ball(1, radius=0.6), 24)
        alpha = np.zeros((1, grid.points.shape[0]), dtype=complex)
        val = estimate_functional_E(
            alpha, fields.sq_norm(1), build_psi_s(np.zeros(1), 0.5, 1.0),
            fields.zero_omega(1), grid,
        )
        assert val == 0.0

    def test_nonnegative_for_psh(self):
        z0 = np.zeros(1, dtype=complex)
        _, f = build_witness_form(z0, np.array([1.0]), 0.5, make_cutoff())
        grid = make_grid(DomainBox("ball", z0, np.array([0.7])), 64)
        for s in (10.0, 100.0):
            psi = build_psi_s(z0, 0.5, s)
            alpha = f.evaluate(grid.points) / s
            val = estimate_functional_E(alpha, fields.sq_norm(1), psi, fields.zero_omega(1), grid)
            assert val >= -1e-12

    def test_negative_for_concave_weight(self):
        # recipe value at s=100, r=1/2 goes negative for the -|z|^2 weight
        z0 = np.zeros(1, dtype=complex)
        _, f = build_witness_form(z0, np.array([1.0]), 0.5, make_cutoff())
        grid = make_grid(DomainBox("ball", z0, np.array([0.7])), 96)
        psi = build_psi_s(z0, 0.5, 100.0)
        alpha = f.evaluate(grid.points) / 100.0
        val = estimate_functional_E(alpha, fields.neg_sq_norm(1), psi, fields.zero_omega(1), grid)
        assert val < 0.0


class TestScanSharpWitness:
    def test_psh_weight_gives_none(self):
        cert = scan_sharp_witness(fields.sq_norm(1), fields.zero_omega(1), unit_ball(1))
        assert cert is None

    def test_neg_sq_norm_certificate(self):
        cert = scan_sharp_witness(fields.neg_sq_norm(1), fields.zero_omega(1), unit_ball(1))
        assert cert is not None
        assert cert.E < 0.0
        assert cert.s <= 1e4
        assert cert.c == pytest.approx(1.0, abs=1e-3)

    def test_saddle_certificate_direction(self):
        cert = scan_sharp_witness(fields.saddle(2.0), fields.zero_omega(2), unit_ball(2))
        assert cert is not None
        assert cert.E < 0.0
        assert abs(cert.xi[1]) > 0.99
        assert cert.c == pytest.approx(2.0, abs=1e-3)

    def test_finite_difference_only_weight(self):
        # a weight with no declared Hessian exercises the FD scan path
        stripped = fields.ScalarField(
            "neg_sq_fd", 1, lambda z: -np.sum(np.abs(z) ** 2, axis=-1)
        )
        cert = scan_sharp_witness(
            stripped, fields.zero_omega(1), unit_ball(1),
            s_schedule=(100.0,), lb_resolution=7,
        )
        assert cert is not None
        assert cert.E < 0.0
        assert cert.c == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("spec, n, grid_nodes", [("neg_sq_norm", 1, None), ("saddle:2", 2, 12)])
    def test_certificate_carries_doubled_energy(self, spec, n, grid_nodes):
        from pshlab.witness import _witness_grid

        phi, omega = fields.get_field(spec, n), fields.zero_omega(n)
        cert = scan_sharp_witness(phi, omega, unit_ball(n), grid_nodes=grid_nodes)
        assert cert is not None
        # reference: the doubled-grid sign functional rebuilt from the certificate
        _, f = build_witness_form(cert.z0, cert.xi, cert.r, make_cutoff())
        fine = _witness_grid(cert.z0, cert.r, 2 * cert.grid_nodes)
        psi = build_psi_s(cert.z0, cert.r, cert.s)
        alpha = alpha_from_f(
            f.evaluate(fine.points).T, omega(fine.points) + cert.s * np.eye(phi.n)
        ).T
        assert cert.E_doubled == estimate_functional_E(alpha, phi, psi, omega, fine)
        assert cert.E < 0.0 and cert.E_doubled < 0.0
        assert cert.as_dict()["E_doubled"] == cert.E_doubled

    @pytest.mark.parametrize("omega, metric_ndim", [
        (fields.zero_omega(1), 2),
        (fields.constant_omega(-0.5 * np.eye(1)), 2),
        (fields.scaled_sq_omega(-0.5, 1), 3),
    ])
    def test_constant_omega_takes_one_metric(self, omega, metric_ndim, monkeypatch):
        import pshlab.witness as witness

        shapes = []
        solve = witness.alpha_from_f

        def recorded(f_coeffs, metric):
            shapes.append(np.shape(metric))
            return solve(f_coeffs, metric)

        monkeypatch.setattr(witness, "alpha_from_f", recorded)
        cert = scan_sharp_witness(fields.neg_sq_norm(1), omega, unit_ball(1), grid_nodes=48)
        assert cert is not None
        assert shapes and all(len(shape) == metric_ndim for shape in shapes)

    def test_alpha_scaling_law(self):
        # with omega = 0, alpha^s = f/s exactly on the inner ball
        from pshlab.witness import _witness_grid

        z0 = np.zeros(1, dtype=complex)
        _, f = build_witness_form(z0, np.array([1.0]), 0.5, make_cutoff())
        grid = _witness_grid(z0, 0.5, 48)
        metric = fields.zero_omega(1)(grid.points) + 50.0 * np.eye(1)
        vals = alpha_from_f(f.evaluate(grid.points).T, metric).T
        expected = f.evaluate(grid.points) / 50.0
        inner = np.abs(grid.points[:, 0]) < 0.25
        assert np.max(np.abs(vals - expected)[:, inner]) <= 1e-14


class TestAlphaEps:
    def test_annulus_support(self):
        w = np.array([0.1 + 0.1j])
        alpha = build_alpha_eps(w, 0.5, make_cutoff())
        inner = w + 0.2 * np.exp(1j * np.linspace(0, 6, 13))[:, None]
        outer = w + 0.6 * np.exp(1j * np.linspace(0, 6, 13))[:, None]
        assert np.max(np.abs(alpha.evaluate(inner))) == 0.0
        assert np.max(np.abs(alpha.evaluate(outer))) == 0.0
        mid = w + 0.4 * np.exp(1j * np.linspace(0, 6, 13))[:, None]
        assert np.max(np.abs(alpha.evaluate(mid))) > 0.0

    def test_is_dbar_of_cutoff(self):
        w = np.zeros(1, dtype=complex)
        chi = make_cutoff()
        eps = 0.5
        alpha = build_alpha_eps(w, eps, chi)
        grid = make_grid(unit_ball(1, radius=0.8), 192)
        chi_vals = chi(np.abs(grid.points[:, 0]) ** 2 / eps**2)
        fd = scalar_dbar(chi_vals, grid)
        direct = alpha.evaluate(grid.points)
        d = np.abs(grid.points[:, 0])
        h = float(np.max(grid.spacing))
        ring = (np.abs(d - eps / 2) < 3 * h) | (np.abs(d - eps) < 3 * h)
        mask = grid.interior_mask(3) & ~ring
        assert np.max(np.abs(fd - direct)[:, mask]) <= 5e-5

    def test_pointwise_metric_bound(self):
        # |alpha_eps|_{metric} <= |chi'| |z-w| / eps^2 since the metric >= euclidean
        w = np.zeros(1, dtype=complex)
        eps = 0.5
        chi = make_cutoff()
        alpha = build_alpha_eps(w, eps, chi)
        psi = build_psi_delta(w, 0.25, 1)
        pts = (0.25 + 0.24 * np.random.default_rng(3).uniform(size=64))[:, None] * np.exp(
            2j * math.pi * np.random.default_rng(4).uniform(size=64)
        )[:, None]
        av = alpha.evaluate(pts)
        metric = psi.hess(pts)
        norm = np.sqrt(
            np.einsum("jm,mjk,km->m", av, np.linalg.inv(metric), np.conj(av)).real
        )
        rho = np.abs(pts[:, 0])
        bound = np.abs(chi.deriv(rho**2 / eps**2)) * rho / eps**2
        assert np.all(norm <= bound + 1e-12)


class TestPsiDelta:
    def test_value_at_w(self):
        w = np.array([0.3 + 0.4j])
        psi = build_psi_delta(w, 1.0, 1)
        assert psi.value_at(w) == pytest.approx(0.25, abs=1e-14)

    def test_monotone_in_delta(self):
        w = np.zeros(2, dtype=complex)
        pts = np.random.default_rng(0).standard_normal((32, 4))
        pts = pts[:, 0:2] + 1j * pts[:, 2:]
        big = build_psi_delta(w, 0.5, 2)(pts)
        small = build_psi_delta(w, 0.25, 2)(pts)
        assert np.all(big >= small - 1e-12)

    def test_log_pole_lower_bound(self):
        w = np.array([0.1, -0.2j])
        psi = build_psi_delta(w, 0.25, 2)
        pts = w + 0.3 * np.random.default_rng(1).standard_normal((64, 2)) + 0.0j
        lhs = psi(pts)
        rhs = 2 * 2 * np.log(np.linalg.norm(pts - w, axis=-1))
        assert np.all(lhs >= rhs)

    def test_delta_zero_pole(self):
        w = np.array([0.0j])
        psi = build_psi_delta(w, 0.0, 1)
        assert psi.value_at(w) == -np.inf
        assert psi.is_pole(w[None, :])[0]
        assert psi.smoothness == "usc"


class TestCoarseChain:
    def test_flat_weight_bound(self):
        rep = coarse_rhs_bound(
            fields.zero_field_like(1) if hasattr(fields, "zero_field_like") else _zero(1),
            m=1, p=2.0, w=np.zeros(1), eps=0.5, delta=0.25, log_c_m=0.0,
        )
        assert rep.verified
        assert rep.bound == pytest.approx(2.0**4 * math.pi * 1.0 * 4.0, rel=1e-12)

    def test_oracle_matches_grid_integral(self):
        # independent polar oracle for the rhs integral at n=1, delta=1/4
        eps, delta = 0.5, 0.25
        chi = make_cutoff()

        def integrand(rho):
            u = rho * rho + delta * delta
            metric = 1.0 + delta * delta / u**2
            alpha_sq = (chi.deriv(rho * rho / eps**2) * rho / eps**2) ** 2
            weight = math.exp(-(rho * rho)) / u
            return alpha_sq / metric * weight * rho * 2.0 * math.pi

        oracle, _ = sint.quad(integrand, eps / 2.0, eps, epsabs=1e-12)
        rep = coarse_rhs_bound(_zero(1), 1, 2.0, np.zeros(1), eps, delta, 0.0, grid_nodes=96)
        assert rep.rhs_integral == pytest.approx(oracle, rel=2e-3)

    def test_eps_halving_scales_bound(self):
        a = coarse_rhs_bound(_zero(1), 1, 2.0, np.zeros(1), 0.5, 0.25, 0.0)
        b = coarse_rhs_bound(_zero(1), 1, 2.0, np.zeros(1), 0.25, 0.25, 0.0, grid_nodes=128)
        assert b.bound == pytest.approx(4.0 * a.bound, rel=1e-12)

    def test_linear_weight_infimum(self):
        phi = fields.re_linear(np.array([1.0 + 0.0j]), 1)
        w = np.array([0.2 + 0.1j])
        rep = coarse_rhs_bound(phi, 5, 2.0, w, 0.5, 0.25, 0.0)
        # inf over the ball of Re z is phi(w) - eps
        assert rep.inf_phi == pytest.approx(phi.value_at(w) - 0.5, abs=2e-3)
        assert rep.verified

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("delta", [0.0, 0.25])
    def test_closed_form_norm_matches_inverse(self, n, delta):
        rng = np.random.default_rng(31)
        w = rng.standard_normal(n) * 0.1 + 1j * rng.standard_normal(n) * 0.1
        z = w + 0.6 * (rng.standard_normal((400, n)) + 1j * rng.standard_normal((400, n)))
        f = rng.standard_normal((n, 400)) + 1j * rng.standard_normal((n, 400))
        reference = np.einsum(
            "jm,mjk,km->m", f, np.linalg.inv(_psi_delta_hess(z, w, delta, n)), np.conj(f)
        ).real
        closed = _psi_delta_norm_sq(f, z, w, delta, n)
        assert np.all(closed >= 0.0)
        assert np.allclose(closed, reference, rtol=1e-13, atol=0.0)

    def test_delta_zero_verified(self):
        rep = coarse_rhs_bound(_zero(1), 2, 2.0, np.zeros(1), 0.5, 0.0, 0.0)
        assert rep.verified


class TestModulusOfContinuity:
    def test_constant(self):
        const = fields.ScalarField("c", 1, lambda z: np.full(z.shape[0], 2.0), smoothness="C0")
        assert modulus_of_continuity(const, unit_ball(1), 0.3) == 0.0

    def test_linear(self):
        phi = fields.re_linear(np.array([1.0 + 0.0j]), 1)
        val = modulus_of_continuity(phi, unit_ball(1), 0.3, resolution=41)
        assert val == pytest.approx(0.3, abs=0.05)

    def test_sq_norm_closed_form(self):
        # extremal pair (z, (1-eps) z) on the unit sphere: 2 eps - eps^2
        phi = fields.sq_norm(1)
        eps = 0.4
        val = modulus_of_continuity(phi, unit_ball(1), eps, resolution=41)
        assert val == pytest.approx(2 * eps - eps * eps, abs=0.06)

    def test_usc_rejected(self):
        usc = fields.ScalarField("u", 1, lambda z: np.zeros(z.shape[0]), smoothness="usc")
        with pytest.raises(ContinuityRequiredError, match="requires continuity"):
            modulus_of_continuity(usc, unit_ball(1), 0.1)


class TestConstantGrowth:
    def test_lipschitz_admissible(self):
        m = [10, 100, 10**4, 10**6]
        cprime, diag = coarse_constant_growth(m, [0.0] * 4, 2.0, lambda e: 2.0 * e)
        assert diag[-1] < 1e-4
        assert np.all(np.diff(diag) < 0)

    def test_exponential_flagged(self):
        m = [1, 10, 100, 500]
        _, diag = coarse_constant_growth(m, [float(v) for v in m], 2.0, lambda e: 0.0)
        assert diag[-1] == pytest.approx(1.0, abs=0.1)

    def test_polynomial_admissible(self):
        m = [10, 100, 10**4, 10**6]
        _, diag = coarse_constant_growth(m, [2.0 * math.log(v) for v in m], 2.0, lambda e: 0.0)
        assert diag[-1] < 1e-3

    def test_rejects_small_constants(self):
        with pytest.raises(ValueError, match=">= 1"):
            coarse_constant_growth([1], [math.log(0.5)], 2.0, lambda e: 0.0)


def _zero(n):
    from pshlab.bochner import zero_field

    return zero_field(n)
