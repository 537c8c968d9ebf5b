import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate as sint

from pshlab import fields
from pshlab.bochner import make_grid, support_values
from pshlab.fields import REGION_RESOLUTION
from pshlab.errors import ContinuityRequiredError, InsufficientNodesError, MetricNotPositiveError
from pshlab.geometry import DomainBox, unit_ball
from pshlab.witness import (
    S_MAX,
    _annulus_grid,
    _psi_delta_norm_sq,
    alpha_from_f,
    build_alpha_eps,
    build_psi_delta,
    build_psi_s,
    build_witness_form,
    coarse_rhs_bound,
    cutoff,
    default_grid_nodes,
    cutoff_deriv,
    estimate_functional_E,
    log_cprime,
    log_envelope_constant,
    modulus_of_continuity,
    _witness_grid,
    scan_sharp_witness,
)

from grid_helpers import (
    CHAIN_REL,
    coarse_rhs_bound_one,
    form_norm_sq,
    gradient_of,
    grid_dbar_01,
    interior_mask,
    metric_quadratic,
    nonzero_nodes,
    scalar_dbar,
    slice_d_dzbar,
)


class TestCutoff:
    def test_flat_top(self):
        assert cutoff(0.1) == 1.0
        assert cutoff(0.25) == 1.0

    def test_support_end(self):
        assert cutoff(1.0) == 0.0
        assert cutoff(1.5) == 0.0

    def test_slope_bound_exactly_two(self):
        t = np.linspace(0.0, 1.2, 200001)
        assert np.max(np.abs(cutoff_deriv(t))) == pytest.approx(2.0, abs=1e-9)

    def test_monotone(self):
        t = np.linspace(0.25, 1.0, 1001)
        assert np.all(np.diff(cutoff(t)) <= 1e-15)

    def test_equals_the_old_profile_bit_for_bit(self):
        # the cutoff was CutoffProfile(flat_top=0.25, support_end=1.0); this is its
        # arithmetic, so every form built on the cutoff keeps its values
        flat_top, support_end = 0.25, 1.0

        def old(t):
            u = np.clip((t - flat_top) / (support_end - flat_top), 0.0, 1.0)
            return 1.0 - (3.0 * u * u - 2.0 * u * u * u)

        def old_deriv(t):
            width = support_end - flat_top
            u = (t - flat_top) / width
            inside = (u > 0.0) & (u < 1.0)
            out = np.zeros_like(u)
            out[inside] = -(6.0 * u[inside] - 6.0 * u[inside] ** 2) / width
            return out

        t = np.concatenate([np.linspace(-0.5, 1.5, 200001), [0.25, 1.0], np.nextafter(
            [0.25, 0.25, 1.0, 1.0], [0.0, 1.0, 0.0, 2.0])])
        assert np.sum(t == 0.25) >= 1 and np.sum(t == 1.0) >= 1
        assert np.array_equal(cutoff(t), old(t))
        assert np.array_equal(cutoff_deriv(t), old_deriv(t))

    def test_deriv_matches_fd(self):
        t = np.linspace(0.05, 1.1, 97)
        h = 1e-6
        fd = (cutoff(t + h) - cutoff(t - h)) / (2 * h)
        assert np.allclose(cutoff_deriv(t), fd, atol=1e-5)


class TestWitnessForm:
    def setup_method(self):
        self.z0 = np.array([0.1 + 0.2j, -0.3 + 0.0j])
        self.xi = np.array([0.6, 0.8j])
        self.f = build_witness_form(self.z0, self.xi, 0.5)

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
        out = grid_dbar_01(self.f, grid)
        d = np.linalg.norm(grid.points - self.z0, axis=1)
        h = float(np.max(grid.spacing))
        ring = (np.abs(d - 0.25) < 3 * h) | (np.abs(d - 0.5) < 3 * h)
        assert np.max(np.abs(out)[:, ~ring]) <= 1e-12
        assert float(np.dot(np.abs(out[0]), grid.weights)) <= 0.5

    def nu(self, z):
        """nu(z) = <xi, conj(z - z0)> chi(|z - z0|^2 / r^2) at r = 0.5, whose dbar is f."""
        t = np.sum(np.abs(z - self.z0) ** 2, axis=-1) / 0.25
        return np.conj((z - self.z0) @ np.conj(self.xi)) * cutoff(t)

    def test_matches_dbar_of_nu(self):
        grid = make_grid(DomainBox("ball", self.z0, np.array([0.75])), 28)
        nu_vals = self.nu(grid.points)
        fd = scalar_dbar(nu_vals, grid)
        direct = self.f.evaluate(grid.points)
        d = np.linalg.norm(grid.points - self.z0, axis=1)
        h = float(np.max(grid.spacing))
        ring = (np.abs(d - 0.25) < 3 * h) | (np.abs(d - 0.5) < 3 * h)
        mask = interior_mask(grid, 3) & ~ring
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
        alpha = nonzero_nodes(np.zeros((1, grid.points.shape[0]), dtype=complex))
        val = estimate_functional_E(
            alpha, fields.sq_norm(1), build_psi_s(np.zeros(1), 0.5, 1.0),
            fields.zero_omega(1), grid,
        )
        assert val.sign == 0 and val.value == 0.0

    def test_nonnegative_for_psh(self):
        z0 = np.zeros(1, dtype=complex)
        f = build_witness_form(z0, np.array([1.0]), 0.5)
        grid = make_grid(DomainBox("ball", z0, np.array([0.7])), 64)
        for s in (10.0, 100.0):
            psi = build_psi_s(z0, 0.5, s)
            alpha = nonzero_nodes(f.evaluate(grid.points) / s)
            val = estimate_functional_E(alpha, fields.sq_norm(1), psi, fields.zero_omega(1), grid)
            assert val.value >= -1e-12

    def test_negative_for_concave_weight(self):
        # recipe value at s=100, r=1/2 goes negative for the -|z|^2 weight
        z0 = np.zeros(1, dtype=complex)
        f = build_witness_form(z0, np.array([1.0]), 0.5)
        grid = make_grid(DomainBox("ball", z0, np.array([0.7])), 96)
        psi = build_psi_s(z0, 0.5, 100.0)
        alpha = nonzero_nodes(f.evaluate(grid.points) / 100.0)
        val = estimate_functional_E(alpha, fields.neg_sq_norm(1), psi, fields.zero_omega(1), grid)
        assert val.sign < 0


class TestScanSharpWitness:
    def test_psh_weight_gives_none(self):
        scan = scan_sharp_witness(fields.sq_norm(1), fields.zero_omega(1), unit_ball(1), S_MAX,
                                  default_grid_nodes(1))
        cert = scan.certificate
        assert cert is None

    def test_neg_sq_norm_certificate(self):
        cert = scan_sharp_witness(
            fields.neg_sq_norm(1), fields.zero_omega(1), unit_ball(1), S_MAX, default_grid_nodes(1)
        ).certificate
        assert cert is not None
        assert cert.E.sign < 0
        assert cert.s <= 1e4
        assert cert.c == pytest.approx(1.0, abs=1e-3)

    def test_saddle_certificate_direction(self):
        cert = scan_sharp_witness(
            fields.saddle(2.0), fields.zero_omega(2), unit_ball(2), S_MAX, default_grid_nodes(2)
        ).certificate
        assert cert is not None
        assert cert.E.sign < 0
        assert abs(cert.xi[1]) > 0.99
        assert cert.c == pytest.approx(2.0, abs=1e-3)

    def test_finite_difference_only_weight(self):
        # a weight with no declared Hessian exercises the FD scan path
        stripped = fields.ScalarField(
            "neg_sq_fd", 1, lambda z: -np.sum(np.abs(z) ** 2, axis=-1)
        )
        cert = scan_sharp_witness(
            stripped, fields.zero_omega(1), unit_ball(1), smax=100, grid_nodes=default_grid_nodes(1),
        ).certificate
        assert cert is not None
        assert cert.E.sign < 0
        assert cert.c == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("phi, omega", [
        (fields.neg_sq_norm(1), fields.zero_omega(1)),
        (fields.sq_norm(1), fields.zero_omega(1)),
        (fields.ScalarField("neg_sq_fd", 1, lambda z: -np.sum(np.abs(z) ** 2, axis=-1)),
         fields.scaled_sq_omega(0.5, 1)),
    ])
    def test_region_grid_evaluated_once(self, phi, omega, monkeypatch):
        region = unit_ball(1)
        nodes = region.grid_points(9)
        region_calls = []
        levi = fields.levi_form

        def counted(field, pts, *args, **kwargs):
            region_calls.append(np.array_equal(pts, nodes))
            return levi(field, pts, *args, **kwargs)

        monkeypatch.setattr(fields, "levi_form", counted)
        scan_sharp_witness(phi, omega, region, smax=10, grid_nodes=default_grid_nodes(1))
        assert region_calls.count(True) == 1

    @pytest.mark.parametrize("phi, omega", [
        (fields.sq_norm(1), fields.zero_omega(1)),
        (fields.sq_norm(1), fields.get_omega("const:1", 1)),  # gap 0: within LEVI_TOL
        (fields.sq_norm(1), fields.get_omega("const:1.1", 1)),
        (fields.sq_norm(1), fields.scaled_sq_omega(1.2, 1)),  # no ball fits
        (fields.neg_sq_norm(1), fields.zero_omega(1)),
        (fields.saddle(2.0), fields.zero_omega(2)),
    ])
    def test_lower_bound_verdict_is_check_lower_bound(self, phi, omega):
        region = unit_ball(phi.n)
        scan = scan_sharp_witness(phi, omega, region, smax=10, grid_nodes=default_grid_nodes(phi.n))
        verdict = fields.check_lower_bound(phi, omega, region, REGION_RESOLUTION, fields.LEVI_TOL)
        assert scan.levi_lower_bound_holds == verdict.holds

    def test_form_evaluated_once_per_grid(self, monkeypatch):
        # sq_norm against omega = 1.1 certifies at s = 100, after s = 10 failed on
        # the grid: two energies on the grid, one on the doubled grid
        from pshlab.bochner import FormField01

        sizes = []
        evaluate = FormField01.evaluate

        def counted(form, pts):
            sizes.append(len(pts))
            return evaluate(form, pts)

        monkeypatch.setattr(FormField01, "evaluate", counted)
        omega = fields.get_omega("const:1.1", 1)
        cert = scan_sharp_witness(
            fields.sq_norm(1), omega, unit_ball(1), S_MAX, default_grid_nodes(1)).certificate
        assert cert.s == 100.0
        f = build_witness_form(cert.z0, cert.xi, cert.r)
        grids = [_witness_grid(cert.z0, cert.r, k * cert.grid_nodes) for k in (1, 2)]
        assert sizes == [g.support_nodes(f.support).size for g in grids]

    def test_each_s_passes_alpha_at_the_nonzero_nodes_of_f(self, monkeypatch):
        # sq_norm against omega = 1.1 fails at s = 10 and certifies at s = 100 on
        # the same grid: each energy gets the nodes where f is nonzero and alpha^s
        # there, equal to alpha^s solved at every node and cut to its nonzero nodes
        import pshlab.witness as witness

        seen = []
        estimate = witness.estimate_functional_E

        def recorded(alpha, phi, psi, omega, grid):
            seen.append((alpha, grid))
            return estimate(alpha, phi, psi, omega, grid)

        monkeypatch.setattr(witness, "estimate_functional_E", recorded)
        omega = fields.get_omega("const:1.1", 1)
        cert = scan_sharp_witness(
            fields.sq_norm(1), omega, unit_ball(1), S_MAX, default_grid_nodes(1)).certificate
        assert cert.s == 100.0 and len(seen) == 3
        assert seen[1][1] is seen[0][1] and seen[2][1] is not seen[0][1]
        f = build_witness_form(cert.z0, cert.xi, cert.r)
        for ((idx, alpha), grid), s in zip(seen, (10.0, 100.0, 100.0)):
            dense = alpha_from_f(f.evaluate(grid.points).T, omega(grid.points) + s * np.eye(1)).T
            want_idx, want = nonzero_nodes(dense)
            assert np.array_equal(idx, want_idx) and np.array_equal(alpha, want)

    @pytest.mark.parametrize("omega", [
        # gap 1 - 1.2|z|^2 < 0 only at the grid nodes on the unit circle: no room for a ball
        fields.scaled_sq_omega(1.2, 1),
        # gap < 0 only within 1e-3 of the center: no radius of the ladder keeps it below -c/2
        fields.HermitianField(
            1, lambda z: 2.0 * np.exp(-np.abs(z[:, 0]) ** 2 / 1e-6)[:, None, None] + 0j
        ),
    ])
    def test_no_ball_no_certificate(self, omega, monkeypatch):
        import pshlab.witness as witness

        def unused(*args):
            raise AssertionError("a witness form was built")

        monkeypatch.setattr(witness, "build_witness_form", unused)
        verdict = fields.check_lower_bound(
            fields.sq_norm(1), omega, unit_ball(1), REGION_RESOLUTION, fields.LEVI_TOL)
        assert not verdict.holds
        assert scan_sharp_witness(
            fields.sq_norm(1), omega, unit_ball(1), S_MAX, default_grid_nodes(1)).certificate is None

    @pytest.mark.parametrize("grid_nodes", [12, 14])
    def test_grid_without_stencil_margin_raises(self, grid_nodes):
        # below 16 nodes per axis the pad of _witness_grid leaves fewer than 4 layers
        # between the form's nonzero nodes and the edge.  The stencils used to read
        # zero within 2 layers of the edge and returned truncated energies: at 12
        # nodes E = -0.0005824427325270767, on the same nodes with 4 more per side
        # -0.0005824427314983227; at 14 nodes -764.7265553923091 and
        # -764.7265553923093.  Now the energy refuses such a grid.
        with pytest.raises(ValueError, match="stencil margin"):
            scan_sharp_witness(
                fields.saddle(2.0), fields.zero_omega(2), unit_ball(2), S_MAX, grid_nodes=grid_nodes
            )

    @pytest.mark.parametrize("spec, n, grid_nodes",
                             [("neg_sq_norm", 1, default_grid_nodes(1)), ("saddle:2", 2, 16)])
    def test_certificate_carries_doubled_energy(self, spec, n, grid_nodes):
        from pshlab.witness import _witness_grid

        phi, omega = fields.get_field(spec, n), fields.zero_omega(n)
        scan = scan_sharp_witness(phi, omega, unit_ball(n), S_MAX, grid_nodes=grid_nodes)
        cert = scan.certificate
        assert cert is not None
        # reference: the doubled-grid sign functional rebuilt from the certificate
        f = build_witness_form(cert.z0, cert.xi, cert.r)
        fine = _witness_grid(cert.z0, cert.r, 2 * cert.grid_nodes)
        psi = build_psi_s(cert.z0, cert.r, cert.s)
        alpha = alpha_from_f(
            f.evaluate(fine.points).T, omega(fine.points) + cert.s * np.eye(phi.n)
        ).T
        want = estimate_functional_E(nonzero_nodes(alpha), phi, psi, omega, fine)
        assert scaled_bits(cert.E_doubled) == scaled_bits(want)
        assert cert.E.sign < 0 and cert.E_doubled.sign < 0
        assert scaled_bits(dataclasses.asdict(cert)["E_doubled"]) == scaled_bits(cert.E_doubled)

    @pytest.mark.parametrize("omega, metric_ndim", [
        (fields.zero_omega(1), 2),
        (fields.constant_omega(-0.5, 1), 2),
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
        cert = scan_sharp_witness(
            fields.neg_sq_norm(1), omega, unit_ball(1), S_MAX, grid_nodes=48
        ).certificate
        assert cert is not None
        assert shapes and all(len(shape) == metric_ndim for shape in shapes)

    def test_alpha_scaling_law(self):
        # with omega = 0, alpha^s = f/s exactly on the inner ball
        from pshlab.witness import _witness_grid

        z0 = np.zeros(1, dtype=complex)
        f = build_witness_form(z0, np.array([1.0]), 0.5)
        grid = _witness_grid(z0, 0.5, 48)
        metric = fields.zero_omega(1)(grid.points) + 50.0 * np.eye(1)
        vals = alpha_from_f(f.evaluate(grid.points).T, metric).T
        expected = f.evaluate(grid.points) / 50.0
        inner = np.abs(grid.points[:, 0]) < 0.25
        assert np.max(np.abs(vals - expected)[:, inner]) <= 1e-14


def dense_functional_E(alpha, phi, psi, omega, grid):
    """The sign functional summed over every node of the grid."""
    pts = grid.points
    gap = phi.hess(pts) - omega(pts)
    quad = np.einsum("mjk,jm,km->m", gap, alpha, np.conj(alpha)).real
    grad_sq = sum(
        np.abs(slice_d_dzbar(grid, alpha[j], k)) ** 2 for j in range(grid.n) for k in range(grid.n)
    )
    expo = -(phi(pts) + psi(pts))
    shift = np.max(expo)
    return float(np.dot(quad + grad_sq, np.exp(expo - shift) * grid.weights)) * math.exp(shift)


class TestBandEnergy:
    @pytest.mark.parametrize("spec, n", [("neg_sq_norm", 1), ("saddle:2", 2)])
    def test_stencil_band_covers_dense_terms_criterion_4(self, spec, n):
        # every node where a whole-grid (slice stencil) integrand of E is nonzero
        phi, omega = fields.get_field(spec, n), fields.zero_omega(n)
        cert = scan_sharp_witness(phi, omega, unit_ball(n), S_MAX, default_grid_nodes(n)).certificate
        f = build_witness_form(cert.z0, cert.xi, cert.r)
        for nodes in (cert.grid_nodes, 2 * cert.grid_nodes):
            grid = _witness_grid(cert.z0, cert.r, nodes)
            alpha = alpha_from_f(
                f.evaluate(grid.points).T, omega(grid.points) + cert.s * np.eye(n)
            ).T
            grad_sq = sum(
                np.abs(slice_d_dzbar(grid, alpha[j], k)) ** 2 for j in range(n) for k in range(n)
            )
            band = gradient_of(alpha, grid).band
            on_band = np.zeros(grid.weights.size, dtype=bool)
            on_band[band] = True
            assert band.size < grid.weights.size
            assert not np.any((np.any(alpha != 0.0, axis=0) | (grad_sq != 0.0)) & ~on_band)

    @pytest.mark.parametrize("spec, n", [("neg_sq_norm", 1), ("saddle:2", 2)])
    def test_dense_oracle_criterion_4(self, spec, n):
        from pshlab.witness import _witness_grid

        phi, omega = fields.get_field(spec, n), fields.zero_omega(n)
        cert = scan_sharp_witness(phi, omega, unit_ball(n), S_MAX, default_grid_nodes(n)).certificate
        f = build_witness_form(cert.z0, cert.xi, cert.r)
        psi = build_psi_s(cert.z0, cert.r, cert.s)
        for nodes, value in ((cert.grid_nodes, cert.E), (2 * cert.grid_nodes, cert.E_doubled)):
            grid = _witness_grid(cert.z0, cert.r, nodes)
            alpha = alpha_from_f(
                f.evaluate(grid.points).T, omega(grid.points) + cert.s * np.eye(n)
            ).T
            dense = dense_functional_E(alpha, phi, psi, omega, grid)
            assert abs(value.value - dense) <= 1e-12 * abs(dense)

    def test_non_hermitian_hessian_raises(self):
        z0 = np.zeros(1, dtype=complex)
        f = build_witness_form(z0, np.array([1.0]), 0.5)
        grid = make_grid(DomainBox("ball", z0, np.array([0.7])), 32)
        bad = fields.ScalarField(
            "bad", 1, lambda z: -np.sum(np.abs(z) ** 2, axis=-1),
            hess=lambda z: np.full((z.shape[0], 1, 1), -1.0 + 0.5j),
        )
        psi = build_psi_s(z0, 0.5, 100.0)
        alpha = support_values(f, grid)[::2]
        with pytest.raises(ValueError, match="declared Hessian of 'bad' is not Hermitian"):
            estimate_functional_E(alpha, bad, psi, fields.zero_omega(1), grid)

    def test_zero_form_evaluates_no_field(self):
        def unused(z):
            raise AssertionError("a field was evaluated")

        grid = make_grid(unit_ball(2, radius=0.6), 8)
        alpha = nonzero_nodes(np.zeros((2, grid.weights.size), dtype=complex))
        phi = fields.ScalarField("unused", 2, unused, hess=unused)
        omega = fields.HermitianField(2, unused)
        assert estimate_functional_E(alpha, phi, phi, omega, grid).total == 0.0


class TestAlphaEps:
    def test_annulus_support(self):
        w = np.array([0.1 + 0.1j])
        alpha = build_alpha_eps(w, 0.5)
        inner = w + 0.2 * np.exp(1j * np.linspace(0, 6, 13))[:, None]
        outer = w + 0.6 * np.exp(1j * np.linspace(0, 6, 13))[:, None]
        assert np.max(np.abs(alpha.evaluate(inner))) == 0.0
        assert np.max(np.abs(alpha.evaluate(outer))) == 0.0
        mid = w + 0.4 * np.exp(1j * np.linspace(0, 6, 13))[:, None]
        assert np.max(np.abs(alpha.evaluate(mid))) > 0.0

    def test_is_dbar_of_cutoff(self):
        w = np.zeros(1, dtype=complex)
        eps = 0.5
        alpha = build_alpha_eps(w, eps)
        grid = make_grid(unit_ball(1, radius=0.8), 192)
        chi_vals = cutoff(np.abs(grid.points[:, 0]) ** 2 / eps**2)
        fd = scalar_dbar(chi_vals, grid)
        direct = alpha.evaluate(grid.points)
        d = np.abs(grid.points[:, 0])
        h = float(np.max(grid.spacing))
        ring = (np.abs(d - eps / 2) < 3 * h) | (np.abs(d - eps) < 3 * h)
        mask = interior_mask(grid, 3) & ~ring
        assert np.max(np.abs(fd - direct)[:, mask]) <= 5e-5

    def test_pointwise_metric_bound(self):
        # |alpha_eps|_{metric} <= |chi'| |z-w| / eps^2 since the metric >= euclidean
        w = np.zeros(1, dtype=complex)
        eps = 0.5
        alpha = build_alpha_eps(w, eps)
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
        bound = np.abs(cutoff_deriv(rho**2 / eps**2)) * rho / eps**2
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

    @pytest.mark.parametrize("delta", [-0.25, 1e155, 1e200, math.inf, math.nan])
    def test_refuses_a_delta_without_a_finite_square(self, delta):
        with pytest.raises(ValueError, match="^delta must be nonnegative, with a square below"):
            build_psi_delta(np.zeros(1), delta, 1)

    @pytest.mark.parametrize("delta", [0.25, 1e78, 1e153])
    def test_metric_norm_lies_between_its_bounds(self, delta):
        # H = a I - b conj(d) d^T has its eigenvalues in [1, a]: |f|^2/a <= |f|^2_H <= |f|^2
        rng = np.random.default_rng(3)
        z = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
        f = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
        w = np.array([0.1, -0.2j])
        got = _psi_delta_norm_sq(f, z, w, delta, 2)
        f_sq = np.sum(np.abs(f) ** 2, axis=0)
        a = 1.0 + 2.0 / (np.sum(np.abs(z - w) ** 2, axis=1) + delta * delta)
        assert np.all(np.isfinite(got))
        assert np.all(got >= f_sq / a * (1.0 - 1e-14)) and np.all(got <= f_sq * (1.0 + 1e-14))

    def test_delta_zero_pole(self):
        w = np.array([0.0j])
        psi = build_psi_delta(w, 0.0, 1)
        assert psi.value_at(w) == -np.inf
        assert psi.grad is None and psi.hess is None  # derivatives take the checked stencils


class TestCoarseChain:
    def test_flat_weight_bound(self):
        [rep] = coarse_rhs_bound(
            fields.zero_field_like(1) if hasattr(fields, "zero_field_like") else _zero(1),
            p=2.0, w=np.zeros(1), blocks=[(0.5, 64)], deltas=[0.25], m_log_c=[(1, 0.0)],
        )
        assert rep.verified
        assert rep.bound.value == pytest.approx(2.0**4 * math.pi * 1.0 * 4.0, rel=1e-12)

    def test_oracle_matches_grid_integral(self):
        # independent polar oracle for the rhs integral at n=1, delta=1/4
        eps, delta = 0.5, 0.25

        def integrand(rho):
            u = rho * rho + delta * delta
            metric = 1.0 + delta * delta / u**2
            alpha_sq = (cutoff_deriv(rho * rho / eps**2) * rho / eps**2) ** 2
            weight = math.exp(-(rho * rho)) / u
            return alpha_sq / metric * weight * rho * 2.0 * math.pi

        oracle, _ = sint.quad(integrand, eps / 2.0, eps, epsabs=1e-12)
        [rep] = coarse_rhs_bound(_zero(1), 2.0, np.zeros(1), [(eps, 96)], [delta], [(1, 0.0)])
        assert rep.rhs_integral.value == pytest.approx(oracle, rel=2e-3)

    def test_eps_halving_scales_bound(self):
        a, b = coarse_rhs_bound(_zero(1), 2.0, np.zeros(1), [(0.5, 64), (0.25, 128)], [0.25],
                                [(1, 0.0)])
        assert b.bound.value == pytest.approx(4.0 * a.bound.value, rel=1e-12)

    def test_linear_weight_infimum(self):
        phi = fields.re_linear(np.array([1.0 + 0.0j]), 1)
        w = np.array([0.2 + 0.1j])
        [rep] = coarse_rhs_bound(phi, 2.0, w, [(0.5, 64)], [0.25], [(5, 0.0)])
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
            "jm,mjk,km->m", f, np.linalg.inv(levi_psi_delta(z, w, delta, n)), np.conj(f)
        ).real
        closed = _psi_delta_norm_sq(f, z, w, delta, n)
        assert np.all(closed >= 0.0)
        assert np.allclose(closed, reference, rtol=1e-13, atol=0.0)

    def test_delta_zero_verified(self):
        [rep] = coarse_rhs_bound(_zero(1), 2.0, np.zeros(1), [(0.5, 64)], [0.0], [(2, 0.0)])
        assert rep.verified

    @pytest.mark.parametrize("eps, nodes", [(0.5, 64), (0.25, 128)])
    def test_criterion_5_block_equals_the_one_tuple_oracle(self, eps, nodes):
        phi, w = fields.re_linear(np.array([1.0 + 0.0j]), 1), np.array([0.2 + 0.1j])
        deltas, m_log_c = (0.25, 0.0625), [(m, 0.0) for m in (1, 2, 4, 8)]
        reports = coarse_rhs_bound(phi, 2.0, w, [(eps, nodes)], deltas, m_log_c)
        want = [coarse_rhs_bound_one(phi, m, 2.0, w, eps, d, c, nodes)
                for m, c in m_log_c for d in deltas]
        assert_reports_match(reports, want)

    def test_criterion_5_reports_equal_the_one_tuple_oracle_in_m_eps_delta_order(self):
        phi, w = fields.re_linear(np.array([1.0 + 0.0j]), 1), np.array([0.2 + 0.1j])
        blocks, deltas = ((0.5, 64), (0.25, 128)), (0.25, 0.0625)
        m_log_c = [(m, 0.0) for m in (1, 2, 4, 8)]
        reports = coarse_rhs_bound(phi, 2.0, w, blocks, deltas, m_log_c)
        want = [
            coarse_rhs_bound_one(phi, m, 2.0, w, eps, d, c, nodes)
            for m, c in m_log_c for eps, nodes in blocks for d in deltas
        ]
        assert_reports_match(reports, want)
        assert [(rep.m, rep.eps, rep.delta) for rep in reports] == [
            (m, eps, d) for m, _ in m_log_c for eps, _ in blocks for d in deltas]

    def test_criterion_5_builds_one_grid_per_eps(self, monkeypatch):
        from pshlab import acceptance, witness
        from pshlab.bochner import GridDiscretization

        calls = {"support_nodes": [], "ball_infimum": []}
        support_nodes, infimum = GridDiscretization.support_nodes, witness.ball_infimum

        def counted_support(grid, support):
            calls["support_nodes"].append(float(support.extents[0]))
            return support_nodes(grid, support)

        def counted_infimum(phi, w, eps):
            calls["ball_infimum"].append(eps)
            return infimum(phi, w, eps)

        monkeypatch.setattr(GridDiscretization, "support_nodes", counted_support)
        monkeypatch.setattr(witness, "ball_infimum", counted_infimum)
        assert acceptance.criterion_coarse_chain(0).passed
        assert calls == {"support_nodes": [0.5, 0.25], "ball_infimum": [0.5, 0.25]}


class TestChainPastTheDoubleRange:
    """At p = 420, 600 and 2000 C / eps^p, |alpha|^p and the rhs leave the double range,
    and each verdict is decided on finite logs."""

    @pytest.mark.parametrize("p", [420.0, 600.0, 2000.0])
    def test_logs_equal_their_closed_form_and_logsumexp_oracle(self, p):
        from scipy.special import logsumexp

        phi, w = fields.get_field("re_linear", 1), np.zeros(1)
        eps, delta, m, log_c_m = 0.25, 0.0, 1, 0.5
        [rep] = coarse_rhs_bound(phi, p, w, [(eps, 256)], [delta], [(m, log_c_m)])
        # the bound: log C - p log eps + log C_m - m inf phi, C = 2^{p+2} pi at n = 1
        terms = [(p + 2.0) * math.log(2.0), math.log(math.pi), -p * math.log(eps), log_c_m,
                 -m * rep.inf_phi]
        assert rep.bound.total == 1.0
        assert abs(rep.bound.log_abs - math.fsum(terms)) <= 1e-15 * math.fsum(map(abs, terms))
        # the rhs: log sum_i e^{(p/2) log |alpha_i|^2 - (m phi_i + psi_i)} cell volume C_m
        grid = _annulus_grid(w, eps, 256)
        _, pts, av = support_values(build_alpha_eps(w, eps), grid)
        x = ((p / 2.0) * np.log(_psi_delta_norm_sq(av, pts, w, delta, 1))
             - (m * phi(pts) + build_psi_delta(w, delta, 1)(pts)))
        want = float(logsumexp(x)) + math.log(grid.cell_volume) + log_c_m
        assert abs(rep.rhs_integral.log_abs - want) <= 1e-15 * abs(want)
        assert math.isinf(rep.rhs_integral.value) and math.isinf(rep.bound.value)
        assert rep.verified == (rep.rhs_integral.log_abs <= rep.bound.log_abs)

    def test_the_verdict_at_p_420_reads_two_finite_logs(self):
        [rep] = coarse_rhs_bound(fields.get_field("re_linear", 1), 420.0, np.zeros(1),
                                 [(0.25, 256)], [0.0], [(1, 0.0)])
        assert rep.rhs_integral.log_abs == pytest.approx(781.3, abs=0.05)
        assert rep.bound.log_abs == pytest.approx(876.1, abs=0.05)
        assert rep.verified


class TestModulusOfContinuity:
    def test_constant(self):
        const = fields.ScalarField("c", 1, lambda z: np.full(z.shape[0], 2.0))
        assert modulus_of_continuity(const, unit_ball(1), 0.3, resolution=33) == 0.0

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

    @pytest.mark.parametrize("spec, n, resolution", [
        ("re_linear", 1, 33), ("sq_norm", 1, 17), ("neg_gauss", 1, 33), ("log1p_sq", 1, 17),
        ("re_linear", 2, 9), ("saddle:2", 2, 9), ("cross", 2, 9), ("neg_gauss", 2, 9),
    ])
    def test_equals_the_all_pairs_maximum(self, spec, n, resolution):
        """Skipping the pairs that cannot raise the maximum changes no bit of it."""
        from pshlab.geometry import row_norm

        phi = fields.get_field(spec, n)
        for center in (0.0, 0.3 - 0.2j):
            region = unit_ball(n, center=[center] * n)
            pts = region.grid_points(resolution)
            vals = phi(pts)
            for m in (1, 2, 3, 4, 8):
                if 1.0 / m < 2.0 / (resolution - 1):
                    # below the grid spacing no pair is within 1/m: refused, not read as 0
                    with pytest.raises(InsufficientNodesError, match="insufficient nodes"):
                        modulus_of_continuity(phi, region, 1.0 / m, resolution)
                    continue
                want = max(
                    float(np.where(row_norm(z - pts) <= 1.0 / m, np.abs(v - vals), 0.0).max())
                    for z, v in zip(pts, vals)
                )
                assert modulus_of_continuity(phi, region, 1.0 / m, resolution) == want

    @pytest.mark.parametrize("center", [0.0, 0.2 + 0.1j])
    def test_eps_below_the_grid_spacing_is_refused(self, center):
        # 17 nodes per axis of the unit ball's box: spacing 1/8, as in the coarse chain
        phi, region = fields.re_linear(np.array([1.0 + 0.0j]), 1), unit_ball(1, center=[center])
        assert modulus_of_continuity(phi, region, 0.125, resolution=17) == 0.125
        # within the 1e-12 relative slack eps is taken as the spacing, and not refused
        modulus_of_continuity(phi, region, 0.125 * (1.0 - 1e-13), resolution=17)
        for eps in (0.125 * (1.0 - 1e-11), 1.0 / 16):
            with pytest.raises(InsufficientNodesError, match="below the grid spacing 0.125"):
                modulus_of_continuity(phi, region, eps, resolution=17)

    @pytest.mark.parametrize("center", [0.0, 0.2 + 0.1j])
    def test_eps_inside_the_slack_pairs_the_axis_neighbours(self, center):
        # an accepted eps just below the spacing 1/8 is taken as the spacing: it
        # pairs each node with its axis neighbours and reads what 1/8 reads, not 0
        phi, region = fields.re_linear(np.array([1.0 + 0.0j]), 1), unit_ball(1, center=[center])
        assert modulus_of_continuity(phi, region, 0.125 * (1.0 - 1e-13), resolution=17) == 0.125

    def test_pole_of_psi_delta_0_rejected(self):
        # the pole w = 0 of psi_delta:0 is a node of the 33-node grid of the unit disc
        psi = build_psi_delta(np.zeros(1, dtype=complex), 0.0, 1)
        with pytest.raises(ContinuityRequiredError, match="-inf inside the region"):
            modulus_of_continuity(psi, unit_ball(1), 0.1, resolution=33)


def growth(m_values, log_c, o_values):
    """The diagnostic log C'_m / m at p = 2 in C^1, one per m."""
    return np.array([log_cprime(m, c, 2.0, o, 1) / m for m, c, o in zip(m_values, log_c, o_values)])


class TestConstantGrowth:
    def test_lipschitz_admissible(self):
        m = [10, 100, 10**4, 10**6]
        diag = growth(m, [0.0] * 4, [2.0 * (1.0 / v) for v in m])
        assert diag[-1] < 1e-4
        assert np.all(np.diff(diag) < 0)

    def test_exponential_flagged(self):
        m = [1, 10, 100, 500]
        diag = growth(m, [float(v) for v in m], [0.0] * 4)
        assert diag[-1] == pytest.approx(1.0, abs=0.1)

    def test_polynomial_admissible(self):
        m = [10, 100, 10**4, 10**6]
        diag = growth(m, [2.0 * math.log(v) for v in m], [0.0] * 4)
        assert diag[-1] < 1e-3

    def test_rejects_small_constants(self):
        with pytest.raises(ValueError, match=">= 1"):
            log_cprime(1, math.log(0.5), 2.0, 0.0, 1)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p", [1.0, 2.0, 7.5])
    def test_equals_the_double_formula_where_that_is_finite(self, n, p):
        mu = math.pi**n / math.factorial(n)
        c_dprime = 2.0**p * (mu + math.e * 2.0 ** (2 * n) * 2.0 ** (p + 2 * n) * mu)
        want = math.log(c_dprime) + 0.5 + p * math.log(8) + 8 * 0.25
        assert abs(log_cprime(8, 0.5, p, 0.25, n) - want) <= 1e-15 * abs(want)
        assert abs(log_envelope_constant(p, n) - math.log(2.0 ** (p + 2 * n) * mu)) <= (
            1e-15 * abs(math.log(2.0 ** (p + 2 * n) * mu)))

    def test_finite_where_2_to_the_p_overflows(self):
        # C'' = 2^p (mu + C' C) with C' C = e 2^{p+4} pi at n = 1: log C'' is (2p + 4) log 2
        # + 1 + log pi, as mu is 2^{-2004} / e of C' C and leaves no bit of the log
        want = 4004 * math.log(2.0) + 1.0 + math.log(math.pi)
        assert abs(log_cprime(1, 0.0, 2000.0, 0.0, 1) - want) <= 1e-15 * want


def _zero(n):
    from pshlab.bochner import zero_field

    return zero_field(n)


def levi_psi_delta(z, w, delta, n):
    """The Levi form I + n log_levi(z - w, |z - w|^2 + delta^2) of psi_delta, also at
    delta = 0, where it is the metric of the usc limit off its pole."""
    d = z - w
    return np.eye(n) + n * fields.log_levi(d, np.sum(np.abs(d) ** 2, axis=-1) + delta * delta)


def scaled_bits(x):
    """The (total, shift) pair of a Scaled, which compares bit for bit with ==."""
    return x.total, x.shift


def assert_reports_match(reports, oracle):
    """Each report has its oracle report's tuple and inf phi, and its rhs and bound
    within CHAIN_REL of the oracle's, relative."""
    assert [(r.m, r.eps, r.delta, r.inf_phi) for r in reports] == [
        (r.m, r.eps, r.delta, r.inf_phi) for r in oracle]
    for rep, want in zip(reports, oracle):
        for got, ref in ((rep.rhs_integral, want.rhs_integral), (rep.bound, want.bound)):
            assert abs(got.value - ref.value) <= CHAIN_REL * abs(ref.value)
