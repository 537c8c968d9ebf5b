import dataclasses
import math
from functools import reduce

import numpy as np
import pytest
from scipy import integrate as sint

from pshlab import fields
from pshlab.bochner import (
    FD_STENCIL_WIDTH,
    FormField01,
    GridDiscretization,
    MappedValues,
    bochner_residual,
    bump_const_form,
    bump_profile,
    bump_zbar_form,
    dbar_01,
    dbar_star,
    form_gradient,
    make_grid,
    support_values,
    weight_gradient,
    zero_field,
)
from pshlab.cli import ConfigError, resolve_spec
from pshlab.errors import WeightOverflowError
from pshlab.geometry import DomainBox, unit_ball
from pshlab.dbar1d import dbar_bump
from pshlab.witness import (
    S_MAX, _witness_grid, build_alpha_eps, build_psi_s, build_witness_form,
    default_grid_nodes, estimate_functional_E, scan_sharp_witness,
)

from grid_helpers import (
    alpha_eps_components,
    bump_const_components,
    bump_zbar_components,
    check_support,
    contains_support_nodes,
    dbar_bump_components,
    dense_form_gradient,
    gradient_of,
    grid_dbar_01,
    grid_dbar_star,
    interior_mask,
    nonzero_nodes,
    on_grid,
    on_support,
    scalar_dbar,
    slice_d_dz,
    slice_d_dzbar,
    slice_dbar_01,
    slice_partial,
    stacked,
    translated_form,
    weight_gradient_on,
    weighted_pairing,
    witness_form_components,
)


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


def mapped(v, grid):
    """Whole-grid node values as the stencil reads them: mapped at every node."""
    return MappedValues(np.arange(v.size), v, grid)


MARGIN_MESSAGE = "^grid does not contain the form's support with a stencil margin$"


class TestPartialStencil:
    @pytest.mark.parametrize("n, nodes", [(1, 11), (2, 9)])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_roll_formula_inside_and_zero_outside(self, n, nodes, kind):
        g = make_grid(DomainBox("ball", np.zeros(n, dtype=complex), np.array([1.3])), nodes)
        rng = np.random.default_rng(17)
        v = rng.standard_normal(g.points.shape[0])
        if kind == "complex":
            v = v + 1j * rng.standard_normal(g.points.shape[0])
        inside = interior_mask(g, 2)
        for axis in range(2 * n):
            d = g.partial(mapped(v, g), axis, np.flatnonzero(inside))
            assert d.dtype == v.dtype
            assert np.array_equal(d, roll_partial(g, v, axis)[inside])
            # along the axis: the roll formula on the interior layers (a band that
            # reaches the outer two is refused, see test_raises_within_two_layers_of_an_edge)
            along = np.indices(g.shape)[axis].ravel()
            edge = (along < 2) | (along >= nodes - 2)
            d = g.partial(mapped(v, g), axis, np.flatnonzero(~edge))
            assert np.array_equal(d, roll_partial(g, v, axis)[~edge])

    @pytest.mark.parametrize("n, nodes", [(1, 11), (2, 9)])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_gathered_equals_slice_stencil(self, n, nodes, kind):
        # random interior nodes plus nodes on the outermost layers where the stencil
        # fits (2 and nodes-3) of every axis, in random order
        g = make_grid(DomainBox("ball", np.full(n, 0.1 - 0.2j), np.array([0.9])), nodes)
        rng = np.random.default_rng(23 + n)
        v = rng.standard_normal(g.weights.size)
        if kind == "complex":
            v = v + 1j * rng.standard_normal(g.weights.size)
        along = np.indices(g.shape).reshape(2 * n, -1)
        inside = interior_mask(g, 2)
        layers = [
            rng.choice(np.flatnonzero((along[axis] == layer) & inside), 3, replace=False)
            for axis in range(2 * n) for layer in (2, nodes - 3)
        ]
        idx = rng.permutation(
            np.concatenate([rng.choice(np.flatnonzero(inside), 40), *layers])
        )
        for axis in range(2 * n):
            d = g.partial(mapped(v, g), axis, idx)
            assert d.dtype == v.dtype
            assert np.array_equal(d, slice_partial(g, v, axis)[idx])

    @pytest.mark.parametrize("n, nodes", [(1, 11), (2, 9)])
    def test_raises_within_two_layers_of_an_edge(self, n, nodes):
        # the stencil band of a single node on layer 0-3 or nodes-4..nodes-1 of an axis,
        # in the middle along every other axis, comes within FD_STENCIL_WIDTH = 2
        # layers of the edge and is refused; on layers 4 and nodes-5 it is not
        g = make_grid(DomainBox("ball", np.zeros(n, dtype=complex), np.array([1.0])), nodes)
        middle = nodes // 2
        for axis in range(2 * n):
            for layer in range(nodes):
                sub = [middle] * (2 * n)
                sub[axis] = layer
                node = np.array([np.ravel_multi_index(tuple(sub), g.shape)])
                if layer < 4 or layer >= nodes - 4:
                    with pytest.raises(ValueError, match=MARGIN_MESSAGE):
                        g.stencil_band(node)
                elif layer in (4, nodes - 5):
                    assert g.stencil_band(node).size == 1 + 4 * FD_STENCIL_WIDTH * n


def old_check_margin(grid, axis, nodes):
    """The margin check that the flat-value stencil made, by index arithmetic: the
    oracle of stencil_band's slab test."""
    nn = grid.nodes_per_axis
    along = nodes // nn ** (len(grid.shape) - 1 - axis) % nn
    if np.any((along < FD_STENCIL_WIDTH) | (along >= nn - FD_STENCIL_WIDTH)):
        raise ValueError("grid does not contain the form's support with a stencil margin")


def old_stencil_band(grid, idx):
    """The stencil band as it was built before it checked its margin."""
    s = np.zeros(grid.shape, dtype=bool)
    s.flat[idx] = True
    band = s.copy()
    for axis in range(s.ndim):
        src, dst = np.moveaxis(s, axis, 0), np.moveaxis(band, axis, 0)
        for k in range(1, FD_STENCIL_WIDTH + 1):
            dst[k:] |= src[:-k]
            dst[:-k] |= src[k:]
    return np.flatnonzero(band)


class TestStencilBandMargin:
    @pytest.mark.parametrize("n, nodes", [(1, 21), (2, 11)])
    def test_slab_check_equals_the_index_check(self, n, nodes):
        g = make_grid(unit_ball(n), nodes)
        rng = np.random.default_rng(31 + n)
        along = np.indices(g.shape).reshape(2 * n, -1)
        inner = np.flatnonzero(np.all((along >= 4) & (along <= nodes - 5), axis=0))
        node_sets = [rng.choice(g.size, rng.integers(1, 6), replace=False) for _ in range(60)]
        # interior sets whose nearest node sits exactly 3 or exactly 4 layers from an edge
        for layer in (3, 4, nodes - 4, nodes - 5):
            for _ in range(8):
                idx = rng.choice(inner, rng.integers(1, 6), replace=False)
                sub = list(np.unravel_index(idx[0], g.shape))
                sub[rng.integers(2 * n)] = layer
                idx[0] = np.ravel_multi_index(tuple(sub), g.shape)
                node_sets.append(idx)
        outcomes = set()
        for idx in node_sets:
            idx = np.unique(idx)
            want = old_stencil_band(g, idx)
            try:
                for axis in range(2 * n):
                    old_check_margin(g, axis, want)
            except ValueError:
                with pytest.raises(ValueError, match=MARGIN_MESSAGE):
                    g.stencil_band(idx)
                outcomes.add("raises")
            else:
                assert np.array_equal(g.stencil_band(idx), want)
                outcomes.add("passes")
        assert outcomes == {"raises", "passes"}


class TestWeightedPairing:
    def test_hermitian_pairing_real(self):
        g = grid1()
        a = bump_const_form(np.array([1.0]))
        val = weighted_pairing(a, a, fields.sq_norm(1), g)
        assert val.real > 0
        assert abs(val.imag) <= 1e-12 * val.real

    def test_disjoint_supports(self):
        g = make_grid(unit_ball(1, radius=2.2), 160)
        bump = bump_const_form(np.array([1.0]), radius=0.5)
        a, b = (translated_form(bump, np.array([x + 0.0j])) for x in (-1.1, 1.1))
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
        # e^{800} times the pairing is past the double range: the one rule makes it inf
        assert weighted_pairing(a, a, sinkhole, g) == complex(math.inf, 0.0)


class TestDbar01:
    def test_n1_empty(self):
        g = grid1(nodes=48)
        a = bump_const_form(np.array([1.0]), radius=0.9)
        out = grid_dbar_01(a, g)
        assert out.shape[0] == 0

    def test_dbar_squared_is_zero(self):
        # alpha = dbar(nu) for a scalar nu has dbar(alpha) = 0; the box leaves room for
        # nu's support, the two layers its stencil adds and the 4-layer stencil margin
        g = grid2(nodes=24, half=1.8)
        value, dzbar = bump_profile(1.0)
        nu_vals = value(g.points) * (g.points[:, 0].real + 0.3)
        alpha_vals = scalar_dbar(nu_vals, g)
        out = grid_dbar_01(alpha_vals, g)
        assert np.max(np.abs(out)) <= 5e-3

    def test_product_rule_closed_form(self):
        # alpha = (zbar_2 b, 0): the antisymmetric coefficient has modulus
        # |b + zbar_2 db/dzbar_2| at interior nodes
        g = grid2(nodes=24)
        value, dzbar = bump_profile(0.8)

        alpha = FormField01(
            "test",
            lambda z: np.stack([np.conj(z[:, 1]) * value(z), np.zeros(z.shape[0], dtype=complex)]),
            unit_ball(2, radius=0.8),
        )
        out = grid_dbar_01(alpha, g)
        expected = value(g.points) + np.conj(g.points[:, 1]) * dzbar(g.points, 1)
        mask = interior_mask(g, 3)
        err = np.max(np.abs(np.abs(out[0]) - np.abs(expected))[mask])
        assert err <= 2e-2
        # and the finite-difference error shrinks under refinement
        g_fine = grid2(nodes=32)
        out_fine = grid_dbar_01(alpha, g_fine)
        expected_fine = value(g_fine.points) + np.conj(g_fine.points[:, 1]) * dzbar(
            g_fine.points, 1
        )
        err_fine = np.max(
            np.abs(np.abs(out_fine[0]) - np.abs(expected_fine))[interior_mask(g_fine, 3)]
        )
        assert err_fine <= err / 2.0


class TestDbarStar:
    def test_unweighted_formula(self):
        g = grid1(nodes=160)
        a = bump_const_form(np.array([1.0]))
        out = grid_dbar_star(a, zero_field(1), g)
        # -d g / dz for the radial bump: -(4)(1-t)^3 * zbar ... via conjugate symmetry
        z = g.points
        expected = 4.0 * np.maximum(1.0 - np.abs(z[:, 0]) ** 2, 0.0) ** 3 * np.conj(z[:, 0])
        mask = interior_mask(g, 3)
        assert np.max(np.abs(out - expected)[mask]) <= 5e-3

    def test_zero_form(self):
        g = grid1(nodes=48)
        zero = FormField01(
            "0", lambda z: np.zeros((1, z.shape[0]), dtype=complex), unit_ball(1, radius=0.9)
        )
        assert np.max(np.abs(grid_dbar_star(zero, fields.sq_norm(1), g))) == 0.0

    def test_adjointness(self):
        # (dbar u, alpha)_phi = (u, dbar*_phi alpha)_phi by parts on the grid
        g = grid1(nodes=160)
        phi = fields.sq_norm(1)
        value, _ = bump_profile(1.0)
        u_vals = value(g.points) * np.conj(g.points[:, 0])
        du = scalar_dbar(u_vals, g)
        alpha = bump_zbar_form(1)
        av = alpha.evaluate(g.points)
        lhs = weighted_pairing(du, av, phi, g)
        rhs = weighted_pairing(u_vals, grid_dbar_star(alpha, phi, g), phi, g)
        scale = np.sqrt(
            abs(weighted_pairing(du, du, phi, g)) * abs(weighted_pairing(av, av, phi, g))
        )
        assert abs(lhs) > 0.05 * scale  # the pair is genuinely non-orthogonal
        assert abs(lhs - rhs) <= 1e-3 * scale


# (n, nodes per axis, form support radius, xi): the grids and forms of criterion 2
CRITERION_2_SETUPS = pytest.mark.parametrize(
    "n, nodes, radius, xi",
    [(1, 256, 0.9, np.array([1.0])), (2, 24, 0.8, np.array([0.8, 0.6j]))],
    ids=["n1", "n2"],
)


class TestUndeclaredDerivatives:
    """A weight with neither grad nor hess takes the finite-difference Levi form
    (step 1e-3, error O(h^2)) and dbar_star's 4th-order grid-stencil gradient
    (error O(spacing^4)); both must match the declared derivatives."""

    @CRITERION_2_SETUPS
    @pytest.mark.parametrize("form_name", ["bump_const", "bump_zbar2"])
    def test_bochner_terms_match_declared(self, n, nodes, radius, xi, form_name):
        grid = make_grid(unit_ball(n, radius=1.3), nodes)
        declared = fields.log1p_sq(n)
        bare = fields.ScalarField("log1p_sq_bare", n, declared.evaluate)
        alpha = (
            bump_const_form(xi, radius=radius)
            if form_name == "bump_const"
            else bump_zbar_form(n, radius=radius)
        )
        [want] = bochner_residual(alpha, [declared], grid)
        [got] = bochner_residual(alpha, [bare], grid)
        stencil_tol = 10.0 * np.max(grid.spacing) ** 4
        (got_c, got_g, got_d, got_a), (want_c, want_g, want_d, want_a) = (
            [t.value for t in rep.terms] for rep in (got, want))
        assert got_c == pytest.approx(want_c, rel=10.0 * 1e-3**2)
        assert got_a == pytest.approx(want_a, rel=stencil_tol)
        assert got_g == want_g
        assert got_d == want_d
        assert got.residual <= (1e-3 if n == 1 else 5e-3)

    @CRITERION_2_SETUPS
    def test_weight_evaluated_on_the_stencil_band_only(self, n, nodes, radius, xi):
        grid = make_grid(unit_ball(n, radius=1.3), nodes)
        declared = fields.log1p_sq(n)
        sizes = []

        def recorded(z):
            sizes.append(z.shape[0])
            return declared.evaluate(z)

        alpha = bump_const_form(xi, radius=radius)
        bochner_residual(alpha, [fields.ScalarField("log1p_sq_bare", n, recorded)], grid)
        # first on the stencil band, for dbar_star's gradient; never on the whole grid
        assert sizes[0] == gradient_of(alpha, grid).band.size
        assert grid.weights.size not in sizes

    @CRITERION_2_SETUPS
    def test_dbar_star_matches_declared(self, n, nodes, radius, xi):
        grid = make_grid(unit_ball(n, radius=1.3), nodes)
        declared = fields.log1p_sq(n)
        bare = fields.ScalarField("log1p_sq_bare", n, declared.evaluate)
        alpha = bump_zbar_form(n, radius=radius)
        g = gradient_of(alpha, grid)
        want = dbar_star(g, weight_gradient_on(declared, g, grid))
        got = dbar_star(g, weight_gradient_on(bare, g, grid))
        assert np.max(np.abs(got - want)) <= 10.0 * np.max(grid.spacing) ** 4 * np.max(np.abs(want))


class TestBochnerIdentity:
    def test_zero_form_trivial(self):
        g = grid1(nodes=48)
        zero = FormField01(
            "0", lambda z: np.zeros((1, z.shape[0]), dtype=complex), unit_ball(1, radius=0.9)
        )
        [rep] = bochner_residual(zero, [fields.sq_norm(1)], g)
        assert rep.lhs.value == rep.rhs.value == 0.0
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
        [rep] = bochner_residual(alpha, [phi], g)
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
        [rep] = bochner_residual(alpha, [phi], g)
        assert rep.residual <= 5e-3

    def test_residual_quarters_under_doubling(self):
        phi = fields.sq_norm(1)
        alpha = bump_zbar_form(1, radius=0.9)
        coarse = bochner_residual(alpha, [phi], grid1(nodes=64))[0].residual
        fine = bochner_residual(alpha, [phi], grid1(nodes=128))[0].residual
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
        curvature, gradient, _, _ = bochner_residual(alpha, [phi], g)[0].terms
        assert curvature.total >= 0.0
        assert gradient.total >= 0.0


    def test_one_form_evaluation_per_residual(self, monkeypatch):
        calls = []
        evaluate = FormField01.evaluate

        def counted(self, pts):
            calls.append(len(pts))
            return evaluate(self, pts)

        monkeypatch.setattr(FormField01, "evaluate", counted)
        g = grid2(nodes=20, half=1.9)
        alpha = bump_zbar_form(2)
        bochner_residual(alpha, [fields.sq_norm(2)], g)
        # one evaluation, at the support nodes of the form only
        assert calls == [g.support_nodes(alpha.support).size] == [3312]


def dense_bochner_terms(alpha, phi, grid):
    """The four terms of the energy identity summed over every node of the grid.

    Needs a weight whose e^{-phi} neither overflows nor underflows on the grid.
    """
    pts = grid.points
    av = alpha.evaluate(pts)
    e = np.exp(-phi(pts)) * grid.weights
    curvature = np.dot(np.einsum("mjk,jm,km->m", phi.hess(pts), av, np.conj(av)).real, e)
    gradient = sum(
        np.dot(np.abs(slice_d_dzbar(grid, av[j], k)) ** 2, e)
        for j in range(grid.n) for k in range(grid.n)
    )
    dbar = np.dot(np.sum(np.abs(slice_dbar_01(grid, av)) ** 2, axis=0), e)
    gphi = phi.grad(pts)
    adj = -sum(slice_d_dz(grid, av[j], j) - av[j] * gphi[:, j] for j in range(grid.n))
    adjoint = np.dot(np.abs(adj) ** 2, e)
    return curvature, gradient, dbar, adjoint


def criterion_2_cases():
    """The eight (grid, weight, form) cases of acceptance criterion 2."""
    for n, nodes, radius in ((1, 256, 0.9), (2, 24, 0.8)):
        xi = np.array([1.0]) if n == 1 else np.array([0.8, 0.6j])
        for phi in (zero_field(n), fields.sq_norm(n)):
            for alpha in (bump_const_form(xi, radius=radius), bump_zbar_form(n, radius=radius)):
                yield pytest.param(n, nodes, phi, alpha, id=f"n{n}-{phi.name}-{alpha.name}")


def band_nodes_without_integrand(values, grid):
    """The stencil-band nodes of a form or its (n, m) node values where the form and
    its gradient energy are both zero."""
    g = gradient_of(values, grid)
    grad_sq = np.sum(np.abs(g.dzbar.reshape(grid.n**2, -1)) ** 2, axis=0)
    return g.band[~on_support(g) & (grad_sq == 0.0)]


class TestBand:
    @pytest.mark.parametrize("n", [1, 2])
    def test_support_nodes_cover_the_nonzero_set(self, n):
        g = make_grid(unit_ball(n, radius=1.3, center=[0.1j] * n), 48 if n == 1 else 14)
        xi = np.eye(n)[0]
        center = np.full(n, 0.05 + 0.1j)
        forms = (
            translated_form(bump_const_form(xi, radius=0.7), center),
            translated_form(bump_zbar_form(n, radius=0.9), center),
            build_witness_form(center, xi, 0.8),
            build_alpha_eps(center, 0.6),
        )
        for form in forms:
            idx = g.support_nodes(form.support)
            assert np.all(np.diff(idx) > 0)
            assert 0 < idx.size < g.weights.size
            off = np.ones(g.weights.size, dtype=bool)
            off[idx] = False
            assert not np.any(form.evaluate(g.points)[:, off]), form.name

    @pytest.mark.parametrize("n, nodes", [(1, 33), (2, 9)])
    def test_points_at_matches_points(self, n, nodes):
        g = make_grid(unit_ball(n, radius=0.7, center=[0.2 - 0.3j] * n), nodes)
        idx = np.random.default_rng(3).choice(g.weights.size, 50, replace=False)
        assert np.array_equal(g.points_at(idx), g.points[idx])
        assert np.array_equal(g.points_at(np.arange(g.weights.size)), g.points)

    @pytest.mark.parametrize("n, nodes, phi, alpha", criterion_2_cases())
    def test_dense_oracle_criterion_2(self, n, nodes, phi, alpha):
        g = make_grid(unit_ball(n, radius=1.3), nodes)
        [rep] = bochner_residual(alpha, [phi], g)
        dense = dense_bochner_terms(alpha, phi, g)
        for got, want in zip((t.value for t in rep.terms), dense):
            assert abs(got - want) <= 1e-12 * abs(want)
        lhs, rhs = dense[0] + dense[1], dense[2] + dense[3]
        # residuals are cancellation-limited (zero weights: roundoff-level), so absolute
        assert abs(rep.residual - abs(lhs - rhs) / max(lhs, rhs)) <= 1e-14

    @pytest.mark.parametrize("n, nodes, phi, alpha", criterion_2_cases())
    def test_stencil_band_covers_dense_terms_criterion_2(self, n, nodes, phi, alpha):
        # every node where a whole-grid (slice stencil) integrand is nonzero
        g = make_grid(unit_ball(n, radius=1.3), nodes)
        av = alpha.evaluate(g.points)
        gphi = phi.grad(g.points)
        terms = (
            np.einsum("mjk,jm,km->m", phi.hess(g.points), av, np.conj(av)),
            sum(np.abs(slice_d_dzbar(g, av[j], k)) ** 2 for j in range(n) for k in range(n)),
            np.sum(np.abs(slice_dbar_01(g, av)) ** 2, axis=0),
            sum(slice_d_dz(g, av[j], j) - av[j] * gphi[:, j] for j in range(n)),
        )
        band = gradient_of(alpha, g).band
        on_band = np.zeros(g.weights.size, dtype=bool)
        on_band[band] = True
        assert band.size < g.weights.size
        for term in terms:
            assert not np.any((term != 0.0) & ~on_band)

    @pytest.mark.parametrize("n, nodes, phi, alpha", criterion_2_cases())
    def test_every_band_node_carries_an_integrand_criterion_2(self, n, nodes, phi, alpha):
        # the converse of the test above: band_energy reduces over the whole stencil band
        g = make_grid(unit_ball(n, radius=1.3), nodes)
        assert band_nodes_without_integrand(alpha, g).size == 0

    @pytest.mark.parametrize("phi, region", [
        (fields.neg_sq_norm(1), unit_ball(1)), (fields.saddle(2.0), unit_ball(2)),
    ], ids=["neg_sq_norm", "saddle"])
    def test_every_band_node_carries_an_integrand_criterion_4(self, phi, region):
        # the certificates' grid and doubled grid; alpha^s = f / s for omega = 0
        nodes = default_grid_nodes(phi.n)
        cert = scan_sharp_witness(phi, fields.zero_omega(phi.n), region, S_MAX, nodes).certificate
        f = build_witness_form(cert.z0, cert.xi, cert.r)
        for nodes in (cert.grid_nodes, 2 * cert.grid_nodes):
            g = _witness_grid(cert.z0, cert.r, nodes)
            assert band_nodes_without_integrand(f.evaluate(g.points) / cert.s, g).size == 0

    def test_weight_shift_is_the_bands(self):
        # e^{400|z|^2} peaks at the box corners, where the form vanishes: a
        # shift taken there underflows every weight on the support
        deep = fields.ScalarField(
            "neg_400_sq", 1, lambda z: -400.0 * np.sum(np.abs(z) ** 2, axis=-1),
            grad=lambda z: -400.0 * np.conj(z),
            hess=lambda z: np.full((z.shape[0], 1, 1), -400.0, dtype=complex),
        )
        [rep] = bochner_residual(bump_const_form([1], radius=0.8), [deep], grid1(nodes=128))
        curvature, gradient, dbar, adjoint = (t.value for t in rep.terms)
        assert curvature < 0.0 < gradient
        assert adjoint > 0.0
        assert dbar == 0.0  # no (0,2)-forms on C
        assert rep.residual <= 1e-3

    def test_pole_off_the_band_is_not_an_error(self):
        # log|z - a| is -inf at a grid node far from the form: no integrand sees it
        g = grid1(nodes=64)
        pole = g.points[np.argmin(np.abs(g.points[:, 0] - (1.2 + 1.2j)))]
        phi = fields.log_abs(pole, 1)
        [rep] = bochner_residual(bump_const_form([1], radius=0.9), [phi], g)
        assert np.isfinite(rep.residual) and rep.lhs.sign > 0
        with pytest.raises(WeightOverflowError):  # as a weight on the whole box
            fields.node_weights(-phi(g.points), g.cell_volume)

    def test_support_without_a_node_raises(self):
        # 16 nodes on [-1.3, 1.3]: the nodes nearest 0 are 0.12 from it
        tiny = FormField01("tiny", lambda z: np.ones((1, z.shape[0]), dtype=complex),
                           unit_ball(1, radius=0.05))
        with pytest.raises(ValueError, match="^grid has no node in the support of the form 'tiny'$"):
            support_values(tiny, grid1(nodes=16))
        assert support_values(tiny, grid1(nodes=15))[0].size == 1

    def test_zero_form_evaluates_no_node(self):
        seen = []

        def record(z):
            seen.append(z.shape[0])
            return np.zeros(z.shape[0])

        phi = fields.ScalarField(
            "recorded", 1, record,
            grad=lambda z: record(z)[:, None].astype(complex),
            hess=lambda z: record(z)[:, None, None].astype(complex),
        )
        zero = FormField01(
            "0", lambda z: np.zeros((1, z.shape[0]), dtype=complex), unit_ball(1, radius=0.9)
        )
        [rep] = bochner_residual(zero, [phi], grid1(nodes=48))
        assert rep.residual == rep.lhs.value == rep.rhs.value == 0.0
        assert not any(seen)


def separable_support_cases():
    """(grid, ball) pairs for the separable support test: balls at n = 1, 2
    centered off the grid, 10^3 spacings from the origin; balls of radius 5 h about
    a node of a grid with a binary spacing h, which put nodes exactly on the
    sphere (offsets (3h, 4h), (h, 2h, 2h, 4h), ...); and a ball whose grown radius
    is a node's distance to its center."""
    for n, nodes in ((1, 64), (2, 14)):
        h = 2.6 / (nodes - 1)
        middle = np.full(n, 1000.0 * h * (1.0 - 0.5j))
        grid = make_grid(unit_ball(n, radius=1.3, center=middle), nodes)
        center = middle + (0.37 - 0.21j) * h
        yield pytest.param(grid, DomainBox("ball", center, np.array([0.9])),
                           id=f"n{n}-ball-off-grid")
    for n, nodes in ((1, 33), (2, 17)):
        grid = GridDiscretization(np.tile([-1.0, 1.0], (2 * n, 1)), nodes)
        h = 2.0 / (nodes - 1)
        center = np.array([0.25 - 0.5j, -0.125 + 0.25j][:n])
        yield pytest.param(grid, DomainBox("ball", center, np.array([5.0 * h])),
                           id=f"n{n}-ball-5h-on-a-node")
    # the node (x_1, y_12) lies on the grown sphere by np.linalg.norm's arithmetic,
    # and outside it by dx * dx + dy * dy where the complex multiply rounds otherwise
    grid = GridDiscretization(np.tile([-1.0, 1.0], (2, 1)), 33)
    ball = DomainBox("ball", np.array([0.1 + 0.05j]), np.array([1.0800028924346394]))
    yield pytest.param(grid, ball, id="n1-ball-node-on-the-grown-sphere")


class TestSeparableSupport:
    @pytest.mark.parametrize("grid, support", separable_support_cases())
    def test_equals_the_point_test(self, grid, support):
        idx = grid.support_nodes(support)
        want = contains_support_nodes(grid, support)
        assert idx.dtype == want.dtype and np.array_equal(idx, want)
        assert 0 < idx.size < np.prod([r.size for r in grid.axes])

    @pytest.mark.parametrize("kind, extents", [("polydisc", [0.5, 0.8]), ("box", [0.3] * 4)])
    def test_support_that_is_not_a_ball_raises(self, kind, extents):
        # every form support of pshlab is a ball
        support = DomainBox(kind, np.zeros(2, dtype=complex), np.array(extents))
        with pytest.raises(ValueError, match=f"must be a ball, not a {kind}$"):
            grid2().support_nodes(support)

    @pytest.mark.parametrize("n, nodes, offsets", [
        (1, 33, [(5, 0), (0, -5), (3, 4), (-4, 3)]),
        (2, 17, [(5, 0, 0, 0), (0, 0, 0, -5), (1, 2, 2, 4), (-2, 4, -1, 2)]),
    ])
    def test_nodes_on_the_sphere_are_in(self, n, nodes, offsets):
        # on [-1, 1] with a binary spacing h the node coordinates and their offsets
        # from a node are exact, so |offset| = 5 h exactly
        grid = GridDiscretization(np.tile([-1.0, 1.0], (2 * n, 1)), nodes)
        h = 2.0 / (nodes - 1)
        at = np.array([0.25, -0.5, -0.125, 0.25][: 2 * n])
        node = np.rint((at + 1.0) / h).astype(int)
        center = at[0::2] + 1j * at[1::2]
        idx = grid.support_nodes(DomainBox("ball", center, np.array([5.0 * h])))
        for offset in offsets:
            k = np.ravel_multi_index(tuple(node + offset), grid.shape)
            assert np.linalg.norm(grid.points_at([k])[0] - center) == 5.0 * h
            assert k in idx
        beyond = node + np.array(offsets[0]) * 6 // 5
        assert np.ravel_multi_index(tuple(beyond), grid.shape) not in idx

    def test_grid_criteria_payloads_equal_the_point_test_and_uncached_set_up(self, monkeypatch):
        # criteria 2, 4, 5 and 8 at seed 0, byte for byte
        from pshlab import acceptance

        criteria = (acceptance.criterion_bochner, acceptance.criterion_witness,
                    acceptance.criterion_coarse_chain, acceptance.criterion_hormander_ratio)
        separable = acceptance.payload_bytes([criterion(0) for criterion in criteria])
        monkeypatch.setattr(GridDiscretization, "support_nodes", contains_support_nodes)
        assert acceptance.payload_bytes([criterion(0) for criterion in criteria]) == separable


class TestFormRegistry:
    def test_get_forms(self):
        assert resolve_spec("form", "bump_const", 1).n == 1
        assert resolve_spec("form", "bump_zbar2", 2).n == 2
        f = resolve_spec("form", "dbar_nu", 1)
        assert f.n == 1

    def test_unknown(self):
        with pytest.raises(ConfigError, match="unknown form id"):
            resolve_spec("form", "mystery", 1)

    def test_support_vanishing(self):
        a = bump_const_form(np.array([1.0, 0.0]), radius=0.7)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.5, 1.5, size=(64, 4))
        pts = pts[:, 0::2] + 1j * pts[:, 1::2]
        assert check_support(a, pts)

    def test_support_margin_enforced(self):
        g = make_grid(unit_ball(1, radius=1.0), 64)  # no margin around the bump
        a = bump_const_form(np.array([1.0]), radius=1.0)
        with pytest.raises(ValueError, match="margin"):
            bochner_residual(a, [zero_field(1)], g)


class TestStencilMargin:
    """The one margin check: the stencils refuse a node within two layers of an
    edge, and the band is the nonzero nodes +-2 along each axis, so every node
    where a form is nonzero must lie at least four layers inside every edge; for a
    form (bochner_residual) and for node values (estimate_functional_E) alike."""

    @pytest.mark.parametrize("n, nodes, radius, layers", [
        (1, 21, 0.65, 4), (1, 21, 0.75, 3), (2, 11, 0.3, 4), (2, 11, 0.5, 3),
    ])
    def test_four_layers_inside_every_edge(self, n, nodes, radius, layers):
        g = make_grid(unit_ball(n, radius=1.0), nodes)
        alpha = bump_const_form(np.eye(n)[0], radius=radius)
        idx, _, av = support_values(alpha, g)
        along = np.indices(g.shape).reshape(2 * n, -1)[:, idx]
        assert min(along.min(), nodes - 1 - along.max()) == layers
        phi, psi = fields.sq_norm(n), build_psi_s(np.zeros(n), radius, 10.0)
        energies = (
            lambda: bochner_residual(alpha, [phi], g),
            lambda: estimate_functional_E((idx, av), phi, psi, fields.zero_omega(n), g),
        )
        for energy in energies:
            if layers >= 4:
                energy()
            else:
                with pytest.raises(ValueError, match="margin"):
                    energy()


class TestFormEvaluator:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_per_component_closures(self, n):
        # one vectorised evaluator per form, bit for bit the old per-component closures,
        # at points inside, on the rings of and outside the supports
        rng = np.random.default_rng(40 + n)
        pts = rng.uniform(-1.2, 1.2, (600, 2 * n)).view(complex)
        center = np.full(n, 0.1 - 0.05j)
        xi = np.linspace(1.0, 2.0, n) * np.exp(1j * np.arange(n))
        xi /= np.linalg.norm(xi)
        pairs = [
            (bump_const_form(xi, 0.9), bump_const_components(xi, 0.9)),
            (bump_zbar_form(n, 0.9), bump_zbar_components(n, 0.9)),
            (build_witness_form(center, xi, 0.8), witness_form_components(center, xi, 0.8)),
            (build_alpha_eps(center, 0.7), alpha_eps_components(center, 0.7)),
        ]
        if n == 1:
            pairs.append((dbar_bump(), dbar_bump_components()))
        for form, components in pairs:
            got, want = form.evaluate(pts), stacked(components, pts)
            assert got.shape == want.shape == (n, pts.shape[0])
            # equal bit patterns, signed zeros included
            bits = [np.ascontiguousarray(v).view(np.uint64) for v in (got, want)]
            assert np.array_equal(*bits), form.name


# the README examples of the subcommands that put a form on a grid
README_GRID_COMMANDS = (
    ["bochner", "--func", "sq_norm", "--dim", "2", "--form", "bump_zbar2", "--grid", "24"],
    ["witness", "--func", "neg_sq_norm", "--dim", "1", "--smax", "1e4"],
    ["dbar", "--weight", "neg_sq_norm", "--psi", "psi_s:[1000, 0.5]", "--rhs", "dbar_nu",
     "--grid", "256", "--degree", "10"],
)


def record_where_bound(monkeypatch, modname, attr, calls):
    """Replace every pshlab module's binding of pshlab.<modname>.<attr> by a
    wrapper that appends each call's positional arguments to calls."""
    import importlib
    import sys

    original = getattr(importlib.import_module("pshlab." + modname), attr)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    for key, module in list(sys.modules.items()):
        if key == "pshlab" or key.startswith("pshlab."):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, recorded)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint8),
                          np.ascontiguousarray(want).view(np.uint8))


def assert_gradient_is_dense(idx, values, grid):
    """form_gradient of a form at its nonzero nodes equals the dense reference of
    its values scattered onto the whole grid, bit for bit."""
    dense = on_grid(grid, idx, values)
    band, form = grid.stencil_band(idx), MappedValues(idx, values, grid)
    got, want = form_gradient(form, band, grid), dense_form_gradient(dense, grid)
    for name in ("band", "values", "dz", "dzbar"):
        assert_same_bits(getattr(got, name), getattr(want, name))
    # the band nodes where the gathered values are nonzero are the form's nodes
    assert_same_bits(on_support(got), np.isin(want.band, idx))


class TestSparseSupportPath:
    """support_values and form_gradient against their dense references, on every
    grid of criteria 2, 4 (the grids and the doubled grids), 5 and 8 and of the
    README bochner, witness and dbar examples: the form evaluated at every node,
    its nonzero nodes found by np.any over the whole grid, and its gradient by
    whole-grid slice stencils."""

    def test_equals_the_dense_reference(self, monkeypatch, tmp_path):
        from pshlab import acceptance, cli

        supports, energies = [], []
        record_where_bound(monkeypatch, "bochner", "support_values", supports)
        record_where_bound(monkeypatch, "witness", "estimate_functional_E", energies)
        for criterion in (acceptance.criterion_bochner, acceptance.criterion_witness,
                          acceptance.criterion_coarse_chain, acceptance.criterion_hormander_ratio):
            criterion(0)
        for k, argv in enumerate(README_GRID_COMMANDS):
            cli.main(argv + ["--out", str(tmp_path / f"{k}.json")])
        # criterion 2's 4 (form, grid) pairs, each taken once for both weights, the grids
        # and doubled grids of criterion 4's two certificates, 2 annulus grids, 2
        # right-hand sides, and the README examples' 1 + 2 + 1; the energies are those
        # of the three witness scans
        assert len(supports) == 4 + 4 + 2 + 2 + 4 and len(energies) == 7
        for form, grid in supports:
            idx, pts, values = support_values(form, grid)
            want_idx, want = nonzero_nodes(form.evaluate(grid.points))
            assert_same_bits(idx, want_idx)
            assert_same_bits(values, want)
            assert_same_bits(pts, grid.points[idx])
            assert_gradient_is_dense(idx, values, grid)
        for (idx, alpha), _, _, _, grid in energies:
            assert np.all(np.any(alpha != 0.0, axis=0))  # alpha^s is nonzero where f is
            assert_gradient_is_dense(idx, alpha, grid)


def weights_at(grid, idx):
    """The trapezoid weights of the flat nodes idx as the products of their 1-D
    weights in axis order, the spacing and half of it at either end of an axis:
    the per-node weights that grid.cell_volume replaced."""
    sub = np.unravel_index(idx, grid.shape)
    edge = grid.nodes_per_axis - 1
    return reduce(np.multiply, [np.where((i == 0) | (i == edge), h * 0.5, h)
                                for h, i in zip(grid.spacing, sub)])


class TestCellVolume:
    """Every node that the grid energies and the coarse chain weigh lies off the
    grid's edge, so its trapezoid weight is the cell volume, bit for bit."""

    def test_on_every_weighed_node(self, monkeypatch, tmp_path):
        from pshlab import acceptance, cli, witness

        bands, supports = [], []
        stencil_band = GridDiscretization.stencil_band

        def recorded_band(self, idx):
            bands.append((self, stencil_band(self, idx)))
            return bands[-1][1]

        def recorded_support(form, grid):
            out = support_values(form, grid)
            supports.append((grid, out[0]))
            return out

        monkeypatch.setattr(GridDiscretization, "stencil_band", recorded_band)
        acceptance.criterion_bochner(0)
        acceptance.criterion_witness(0)
        monkeypatch.setattr(witness, "support_values", recorded_support)
        acceptance.criterion_coarse_chain(0)
        assert cli.main(["coarse-chain", "--func", "re_linear", "--m", "1,2,4,8", "--p", "2",
                         "--cm", "1", "--out", str(tmp_path / "chain.csv")]) == 0
        # criterion 2's 4 bands and the 5 energies of criterion 4's scans; 2 annulus
        # grids each for criterion 5 and the README coarse-chain
        assert len(bands) == 4 + 5 and len(supports) == 2 + 2
        for grid, nodes in bands + supports:
            assert_same_bits(np.full(nodes.size, grid.cell_volume), weights_at(grid, nodes))


def masked_dbar_star(g, phi, grid):
    """dbar_star as it was written with a support mask: a weight without grad takes its
    stencil gradient at the form's nonzero nodes only, and the product alpha_j dphi/dz_j
    is subtracted there alone."""
    mask = on_support(g)
    mapped = MappedValues(g.band, phi(grid.points_at(g.band)), grid)
    gphi = np.stack([grid.wirtinger(mapped, j, g.band[mask])[0] for j in range(grid.n)], axis=1)
    out = np.zeros(g.band.size, dtype=complex)
    for j in range(g.dz.shape[0]):
        term = g.dz[j].copy()
        term[mask] -= g.values[j, mask] * gphi[:, j]
        out -= term
    return out


class TestAdjointOnTheBand:
    @CRITERION_2_SETUPS
    @pytest.mark.parametrize("form_name", ["bump_const", "bump_zbar2"])
    def test_equals_the_masked_form(self, n, nodes, radius, xi, form_name):
        grid = make_grid(unit_ball(n, radius=1.3), nodes)
        alpha = (bump_const_form(xi, radius=radius) if form_name == "bump_const"
                 else bump_zbar_form(n, radius=radius))
        g = gradient_of(alpha, grid)
        for phi in (dataclasses.replace(fields.sq_norm(n), grad=None),
                    fields.ScalarField("log1p_sq_bare", n, fields.log1p_sq(n).evaluate)):
            gphi = weight_gradient(phi, g.band[on_support(g)], g.band, grid)
            assert np.all(gphi[~on_support(g)] == 0.0)
            assert_same_bits(dbar_star(g, gphi), masked_dbar_star(g, phi, grid))


def batch_weights(n):
    """zero, sq_norm, sq_norm without grad (weight_gradient's stencil branch) and log1p_sq."""
    sq = fields.sq_norm(n)
    return [zero_field(n), sq, dataclasses.replace(sq, name="sq_norm_no_grad", grad=None),
            fields.log1p_sq(n)]


def report_bits(rep):
    return [(t.total, t.shift) for t in rep.terms]


class TestBatchedWeights:
    """One band, one map and one blocked gradient pass serve every weight of a call:
    each report is the one the weight's own call gives, bit for bit, in the order
    of the weights."""

    @CRITERION_2_SETUPS
    @pytest.mark.parametrize("form_name", ["bump_const", "bump_zbar2"])
    def test_each_report_equals_its_one_weight_call(self, n, nodes, radius, xi, form_name):
        grid = make_grid(unit_ball(n, radius=1.3), nodes)
        alpha = (bump_const_form(xi, radius=radius) if form_name == "bump_const"
                 else bump_zbar_form(n, radius=radius))
        weights = batch_weights(n)
        singles = [report_bits(bochner_residual(alpha, [phi], grid)[0]) for phi in weights]
        batched = [report_bits(rep) for rep in bochner_residual(alpha, weights, grid)]
        assert batched == singles
        backwards = [report_bits(rep) for rep in bochner_residual(alpha, weights[::-1], grid)]
        assert backwards == singles[::-1]

    def test_criterion_2_takes_each_form_and_grid_once(self, monkeypatch):
        from pshlab import acceptance

        supports, bands = [], []
        record_where_bound(monkeypatch, "bochner", "support_values", supports)
        stencil_band = GridDiscretization.stencil_band

        def counted(self, idx):
            bands.append(idx.size)
            return stencil_band(self, idx)

        monkeypatch.setattr(GridDiscretization, "stencil_band", counted)
        acceptance.criterion_bochner(0)
        # two forms on each of two grids, each taken once for both weights
        assert len(supports) == len(bands) == 4


class TestMappedValues:
    def test_columns_are_c_ordered_and_gather_the_f_ordered_bits(self):
        grid = grid2(nodes=24)
        idx, _, values = support_values(bump_zbar_form(2, radius=0.8), grid)
        # values[:, nonzero] keeps the F order of the (m, n) evaluation's transpose
        assert values.flags.f_contiguous and not values.flags.c_contiguous
        form = MappedValues(idx, values, grid)
        assert form.columns.flags.c_contiguous
        dense = np.zeros((grid.n, grid.size), dtype=complex, order="F")
        dense[:, idx] = values
        band = grid.stencil_band(idx)
        for flat in (band, band[::-1], idx, band[~np.isin(band, idx)]):
            assert_same_bits(form.at(flat), dense[:, flat])

def zero_form(n, radius=0.9, center=None):
    """A form that is zero at every node of its ball support."""
    return FormField01("0", lambda z: np.zeros((n, z.shape[0]), dtype=complex),
                       unit_ball(n, radius=radius, center=center))


class TestZeroForm:
    """A form that is zero at every support node has no nonzero node: its Bochner
    terms are all 0 and its witness energy is 0, so no certificate."""

    @pytest.mark.parametrize("n, nodes", [(1, 48), (2, 14)])
    def test_bochner_terms_are_zero(self, n, nodes):
        grid = make_grid(unit_ball(n, radius=1.3), nodes)
        idx, pts, values = support_values(zero_form(n), grid)
        assert idx.size == pts.shape[0] == values.shape[1] == 0 and values.shape[0] == n
        [rep] = bochner_residual(zero_form(n), [fields.sq_norm(n)], grid)
        assert [t.total for t in rep.terms] == [0.0] * 4 and rep.residual == 0.0

    @pytest.mark.parametrize("omega", [fields.zero_omega(1), fields.scaled_sq_omega(-0.5, 1)])
    def test_witness_energy_is_zero(self, omega, monkeypatch):
        import pshlab.witness as witness

        energies = []
        estimate = witness.estimate_functional_E

        def recorded(*args):
            energies.append(estimate(*args))
            return energies[-1]

        monkeypatch.setattr(witness, "build_witness_form",
                            lambda z0, xi, r: zero_form(1, radius=r, center=z0))
        monkeypatch.setattr(witness, "estimate_functional_E", recorded)
        scan = scan_sharp_witness(fields.neg_sq_norm(1), omega, unit_ball(1), S_MAX,
                                  default_grid_nodes(1))
        assert scan.certificate is None and not scan.levi_lower_bound_holds
        assert [e.total for e in energies] == [0.0] * 4  # s = 10, 100, 1000, 10000
