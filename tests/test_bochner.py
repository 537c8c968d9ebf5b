import math

import numpy as np
import pytest
from scipy import integrate as sint

from pshlab import fields
from pshlab.bochner import (
    FormField01,
    bochner_residual,
    bump_const_form,
    bump_profile,
    bump_zbar_form,
    dbar_01,
    dbar_star,
    get_form,
    make_grid,
    scalar_dbar,
    weighted_pairing,
    zero_field,
)
from pshlab.errors import WeightOverflowError
from pshlab.geometry import DomainBox, unit_ball


def grid1(nodes=128, half=1.3):
    return make_grid(unit_ball(1, radius=half), nodes)


def grid2(nodes=20, half=1.3):
    return make_grid(unit_ball(2, radius=half), nodes)


def roll_partial(grid, values, axis):
    """The periodic-roll 4th-order difference that the slice stencil replaced."""
    v = np.asarray(values).reshape(grid.shape)
    h = grid.spacing[axis]
    d = (
        -np.roll(v, -2, axis=axis)
        + 8.0 * np.roll(v, -1, axis=axis)
        - 8.0 * np.roll(v, 1, axis=axis)
        + np.roll(v, 2, axis=axis)
    ) / (12.0 * h)
    return d.ravel()


class TestPartialStencil:
    @pytest.mark.parametrize("n, nodes", [(1, 11), (2, 9)])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_roll_formula_inside_and_zero_outside(self, n, nodes, kind):
        g = make_grid(DomainBox("ball", np.zeros(n, dtype=complex), np.array([1.3])), nodes)
        rng = np.random.default_rng(17)
        v = rng.standard_normal(g.points.shape[0])
        if kind == "complex":
            v = v + 1j * rng.standard_normal(g.points.shape[0])
        inside = g.interior_mask(2)
        for axis in range(2 * n):
            d = g.partial(v, axis)
            assert d.dtype == v.dtype
            assert np.array_equal(d[inside], roll_partial(g, v, axis)[inside])
            # along the axis: the roll formula on the interior layers, zero on the outer two
            along = np.indices(g.shape)[axis].ravel()
            edge = (along < 2) | (along >= nodes - 2)
            assert np.array_equal(d[~edge], roll_partial(g, v, axis)[~edge])
            assert not np.any(d[edge])


class TestWeightedPairing:
    def test_hermitian_pairing_real(self):
        g = grid1()
        a = bump_const_form(np.array([1.0]))
        val = weighted_pairing(a, a, fields.sq_norm(1), g)
        assert val.real > 0
        assert abs(val.imag) <= 1e-12 * val.real

    def test_disjoint_supports(self):
        g = make_grid(unit_ball(1, radius=2.2), 160)
        a = bump_const_form(np.array([1.0]), center=np.array([-1.1 + 0.0j]), radius=0.5)
        b = bump_const_form(np.array([1.0]), center=np.array([1.1 + 0.0j]), radius=0.5)
        assert abs(weighted_pairing(a, b, zero_field(1), g)) <= 1e-12

    def test_radial_oracle(self):
        # oracle: 1-D radial quadrature of the bump squared, weight 0
        g = grid1(nodes=192)
        a = bump_const_form(np.array([1.0]))
        val = weighted_pairing(a, a, zero_field(1), g).real
        oracle = 2.0 * math.pi * sint.quad(
            lambda rho: (1.0 - rho * rho) ** 8 * rho, 0.0, 1.0
        )[0]
        assert val == pytest.approx(oracle, rel=1e-4)

    def test_weight_overflow(self):
        sinkhole = fields.ScalarField("deep", 1, lambda z: np.full(z.shape[0], -800.0))
        g = grid1(nodes=48)
        a = bump_const_form(np.array([1.0]), radius=0.9)
        with pytest.raises(WeightOverflowError, match="weight overflow"):
            weighted_pairing(a, a, sinkhole, g)


class TestDbar01:
    def test_n1_empty(self):
        g = grid1(nodes=48)
        a = bump_const_form(np.array([1.0]), radius=0.9)
        out = dbar_01(a, g)
        assert out.shape[0] == 0

    def test_dbar_squared_is_zero(self):
        # alpha = dbar(nu) for a scalar nu has dbar(alpha) = 0
        g = grid2(nodes=24)
        value, dzbar = bump_profile(np.zeros(2), 1.0, 2)
        nu_vals = value(g.points) * (g.points[:, 0].real + 0.3)
        alpha_vals = scalar_dbar(nu_vals, g)
        out = dbar_01(alpha_vals, g)
        assert np.max(np.abs(out)) <= 5e-3

    def test_product_rule_closed_form(self):
        # alpha = (zbar_2 b, 0): the antisymmetric coefficient has modulus
        # |b + zbar_2 db/dzbar_2| at interior nodes
        g = grid2(nodes=24)
        value, dzbar = bump_profile(np.zeros(2), 0.8, 2)

        alpha = FormField01(
            "test", 2,
            (lambda z: np.conj(z[:, 1]) * value(z),
             lambda z: np.zeros(z.shape[0], dtype=complex)),
            unit_ball(2, radius=0.8),
        )
        out = dbar_01(alpha, g)
        expected = value(g.points) + np.conj(g.points[:, 1]) * dzbar(g.points, 1)
        mask = g.interior_mask(3)
        err = np.max(np.abs(np.abs(out[0]) - np.abs(expected))[mask])
        assert err <= 2e-2
        # and the finite-difference error shrinks under refinement
        g_fine = grid2(nodes=32)
        out_fine = dbar_01(alpha, g_fine)
        expected_fine = value(g_fine.points) + np.conj(g_fine.points[:, 1]) * dzbar(
            g_fine.points, 1
        )
        err_fine = np.max(
            np.abs(np.abs(out_fine[0]) - np.abs(expected_fine))[g_fine.interior_mask(3)]
        )
        assert err_fine <= err / 2.0


class TestDbarStar:
    def test_unweighted_formula(self):
        g = grid1(nodes=160)
        a = bump_const_form(np.array([1.0]))
        out = dbar_star(a, zero_field(1), g)
        # -d g / dz for the radial bump: -(4)(1-t)^3 * zbar ... via conjugate symmetry
        z = g.points
        expected = 4.0 * np.maximum(1.0 - np.abs(z[:, 0]) ** 2, 0.0) ** 3 * np.conj(z[:, 0])
        mask = g.interior_mask(3)
        assert np.max(np.abs(out - expected)[mask]) <= 5e-3

    def test_zero_form(self):
        g = grid1(nodes=48)
        zero = FormField01(
            "0", 1, (lambda z: np.zeros(z.shape[0], dtype=complex),), unit_ball(1, radius=0.9)
        )
        assert np.max(np.abs(dbar_star(zero, fields.sq_norm(1), g))) == 0.0

    def test_adjointness(self):
        # (dbar u, alpha)_phi = (u, dbar*_phi alpha)_phi by parts on the grid
        g = grid1(nodes=160)
        phi = fields.sq_norm(1)
        value, _ = bump_profile(np.zeros(1), 1.0, 1)
        u_vals = value(g.points) * np.conj(g.points[:, 0])
        du = scalar_dbar(u_vals, g)
        alpha = bump_zbar_form(1)
        av = alpha.evaluate(g.points)
        lhs = weighted_pairing(du, av, phi, g)
        rhs = weighted_pairing(u_vals, dbar_star(alpha, phi, g), phi, g)
        scale = np.sqrt(
            abs(weighted_pairing(du, du, phi, g)) * abs(weighted_pairing(av, av, phi, g))
        )
        assert abs(lhs) > 0.05 * scale  # the pair is genuinely non-orthogonal
        assert abs(lhs - rhs) <= 1e-3 * scale


class TestBochnerIdentity:
    def test_zero_form_trivial(self):
        g = grid1(nodes=48)
        zero = FormField01(
            "0", 1, (lambda z: np.zeros(z.shape[0], dtype=complex),), unit_ball(1, radius=0.9)
        )
        rep = bochner_residual(zero, fields.sq_norm(1), g)
        assert rep.lhs == rep.rhs == 0.0
        assert rep.residual == 0.0

    @pytest.mark.parametrize("phi_name", ["zero", "sq_norm"])
    @pytest.mark.parametrize("form_name", ["bump_const", "bump_zbar2"])
    def test_n1_identity(self, phi_name, form_name):
        g = grid1(nodes=256)
        phi = zero_field(1) if phi_name == "zero" else fields.sq_norm(1)
        alpha = (
            bump_const_form(np.array([1.0]), radius=0.9)
            if form_name == "bump_const"
            else bump_zbar_form(1, radius=0.9)
        )
        rep = bochner_residual(alpha, phi, g)
        assert rep.residual <= 1e-3

    @pytest.mark.parametrize("phi_name", ["zero", "sq_norm"])
    @pytest.mark.parametrize("form_name", ["bump_const", "bump_zbar2"])
    def test_n2_identity(self, phi_name, form_name):
        g = grid2(nodes=24)
        phi = zero_field(2) if phi_name == "zero" else fields.sq_norm(2)
        alpha = (
            bump_const_form(np.array([0.8, 0.6j]), radius=0.8)
            if form_name == "bump_const"
            else bump_zbar_form(2, radius=0.8)
        )
        rep = bochner_residual(alpha, phi, g)
        assert rep.residual <= 5e-3

    def test_residual_quarters_under_doubling(self):
        phi = fields.sq_norm(1)
        alpha = bump_zbar_form(1, radius=0.9)
        coarse = bochner_residual(alpha, phi, grid1(nodes=64)).residual
        fine = bochner_residual(alpha, phi, grid1(nodes=128)).residual
        assert fine <= coarse / 3.5

    def test_nodewise_nonnegativity_for_psh_weight(self):
        # every lhs summand is a nonnegative Hermitian form plus squares
        g = grid1(nodes=64)
        phi = fields.sq_norm(1)
        alpha = bump_const_form(np.array([1.0]), radius=0.9)
        av = alpha.evaluate(g.points)
        hess = phi.hess(g.points)
        quad = np.einsum("mjk,jm,km->m", hess, av, np.conj(av)).real
        assert np.min(quad) >= -1e-12
        rep = bochner_residual(alpha, phi, g)
        assert rep.curvature_term >= 0.0
        assert rep.gradient_term >= 0.0


    def test_one_form_evaluation_per_residual(self, monkeypatch):
        calls = []
        evaluate = FormField01.evaluate

        def counted(self, pts):
            calls.append(len(pts))
            return evaluate(self, pts)

        monkeypatch.setattr(FormField01, "evaluate", counted)
        g = grid2(nodes=20, half=1.9)
        bochner_residual(bump_zbar_form(2), fields.sq_norm(2), g)
        assert calls == [g.points.shape[0]]


class TestFormRegistry:
    def test_get_forms(self):
        assert get_form("bump_const", 1).n == 1
        assert get_form("bump_zbar2", 2).n == 2
        f = get_form("dbar_nu", 1)
        assert f.n == 1

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown form id"):
            get_form("mystery", 1)

    def test_support_vanishing(self):
        a = bump_const_form(np.array([1.0, 0.0]), radius=0.7)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.5, 1.5, size=(64, 4))
        pts = pts[:, 0::2] + 1j * pts[:, 1::2]
        assert a.check_support(pts)

    def test_support_margin_enforced(self):
        g = make_grid(unit_ball(1, radius=1.0), 64)  # no margin around the bump
        a = bump_const_form(np.array([1.0]), radius=1.0)
        with pytest.raises(ValueError, match="margin"):
            weighted_pairing(a, a, zero_field(1), g)
