import math

import numpy as np
import pytest

from pshlab import fields
from pshlab.bochner import FD_STENCIL_WIDTH, FormField01, bump_profile, make_grid
from pshlab.cli import resolve_spec
from pshlab.errors import DegenerateWeightError
from pshlab.dbar1d import (
    RESIDUAL_MARGIN_CELLS,
    _centered_powers,
    _fast_length,
    cauchy_transform,
    dbar_residual,
    hormander_ratio,
)
from pshlab.extension import weighted_bergman_projection
from pshlab.geometry import unit_ball
from pshlab.witness import build_psi_s, build_witness_form

from grid_helpers import (
    bergman_project, hormander_ratio_one, interior_mask, projection_orthogonality, shifted_weights,
    slice_d_dzbar,
)


def grid256(half=2.0):
    return make_grid(unit_ball(1, radius=half), 256)


def flat_top_indicator(grid, radius=1.0):
    """Smooth approximation of the unit-disc indicator: 1 on t <= 1/4."""
    t = np.abs(grid.points[:, 0]) ** 2 / radius**2
    u = np.clip((t - 0.25) / 0.75, 0.0, 1.0)
    return ((1.0 - u) ** 4 * (1.0 + 4.0 * u)).astype(complex)


def dbar_bump_form(radius=1.0):
    """f = dbar of the radial quartic bump, in closed form."""
    value, dzbar = bump_profile(radius)
    return FormField01(
        "dbar_bump", lambda z: dzbar(z, 0)[None, :], unit_ball(1, radius=radius)
    )


class TestCauchyTransform:
    def test_indicator_gives_zbar_on_flat_top(self):
        # solid Cauchy transform of the unit-disc constant equals zbar inside;
        # the smooth shoulder contributes nothing inside its inner radius
        g = grid256()
        f = flat_top_indicator(g)
        u = cauchy_transform(f, g)
        inner = np.abs(g.points[:, 0]) < 0.45
        err = np.max(np.abs(u - np.conj(g.points[:, 0]))[inner])
        assert err <= 2e-2

    def test_zero(self):
        g = make_grid(unit_ball(1, radius=1.0), 32)
        u = cauchy_transform(np.zeros(32 * 32, dtype=complex), g)
        assert np.max(np.abs(u)) == 0.0

    def test_linearity(self):
        g = make_grid(unit_ball(1, radius=2.0), 64)
        value, dzbar = bump_profile(1.0)
        f1 = dzbar(g.points, 0)
        f2 = value(g.points) * np.conj(g.points[:, 0])
        a = 2.0 - 1.5j
        lhs = cauchy_transform(a * f1 + f2, g)
        rhs = a * cauchy_transform(f1, g) + cauchy_transform(f2, g)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_direct_sum_oracle(self):
        # the FFT convolution must match the literal excised double sum, at an
        # even and an odd number of nodes per axis
        for nodes in (32, 33):
            g = make_grid(unit_ball(1, radius=1.5), nodes)
            value, dzbar = bump_profile(0.9)
            f = dzbar(g.points, 0)
            u_fft = cauchy_transform(f, g)
            pts = g.points[:, 0]
            h = g.spacing[0]
            diff = pts[:, None] - pts[None, :]
            kernel = np.zeros_like(diff)
            np.fill_diagonal(diff, 1.0)
            kernel = 1.0 / diff
            np.fill_diagonal(kernel, 0.0)
            u_direct = kernel @ f * (h * h / math.pi)
            assert np.max(np.abs(u_fft - u_direct)) <= 1e-10

    def test_interior_residual(self):
        g = grid256()
        f_form = dbar_bump_form()
        fv = f_form.evaluate(g.points)[0]
        u = cauchy_transform(fv, g)
        res = dbar_residual(u, fv, g)
        assert res <= 5e-3 * np.max(np.abs(fv))

    def test_residual_equals_slice_stencil_inside_the_margin(self):
        # the residual's nodes keep the stencil inside the grid
        assert RESIDUAL_MARGIN_CELLS >= FD_STENCIL_WIDTH
        rng = np.random.default_rng(8)

        def random_values(g):
            u = rng.standard_normal(g.weights.size) + 1j * rng.standard_normal(g.weights.size)
            return u, rng.standard_normal(g.weights.size) + 0j

        # and on the smallest grid that has a node that far inside: that one node
        for nodes in (40, 2 * RESIDUAL_MARGIN_CELLS + 1):
            g = make_grid(unit_ball(1, radius=1.0), nodes)
            u, f = random_values(g)
            inside = interior_mask(g, RESIDUAL_MARGIN_CELLS)
            assert np.count_nonzero(inside) == (nodes - 2 * RESIDUAL_MARGIN_CELLS) ** 2
            want = float(np.max(np.abs(slice_d_dzbar(g, u, 0) - f)[inside]))
            assert dbar_residual(u, f, g) == want
        # a spike one layer outside the margin is not seen; one on its first layer is
        g = make_grid(unit_ball(1, radius=1.0), 40)
        u, f = random_values(g)
        for layer, seen in ((RESIDUAL_MARGIN_CELLS - 1, False), (RESIDUAL_MARGIN_CELLS, True)):
            spiked = f.copy()
            spiked[layer * 40 + 20] = 1e6
            assert (dbar_residual(u, spiked, g) > 1e5) is seen

    def test_residual_improves_with_resolution(self):
        f_form = dbar_bump_form()
        res = {}
        for nodes in (128, 256):
            g = make_grid(unit_ball(1, radius=2.0), nodes)
            fv = f_form.evaluate(g.points)[0]
            res[nodes] = dbar_residual(cauchy_transform(fv, g), fv, g)
        assert res[256] <= res[128] / 2.0

    def test_boundary_support_rejected(self):
        g = make_grid(unit_ball(1, radius=1.0), 32)
        with pytest.raises(ValueError, match="boundary"):
            cauchy_transform(np.ones(32 * 32, dtype=complex), g)


class TestBergmanProjection:
    def test_zbar_projects_to_zero_on_disc(self):
        g = grid256(half=1.5)
        # the weight is 1 on the unit disc and 0 (eta = +inf) off it
        eta = np.where(unit_ball(1).contains(g.points), 0.0, np.inf)
        u = np.conj(g.points[:, 0])
        _, coeffs, _ = bergman_project(u, eta, 6, g)
        assert np.max(np.abs(coeffs)) <= 1e-2

    def test_polynomial_fixed(self):
        g = make_grid(unit_ball(1, radius=1.2), 96)
        eta = fields.sq_norm(1)(g.points)
        u = 0.3 + 0.5 * g.points[:, 0] - 0.2j * g.points[:, 0] ** 2
        residual, _, _ = bergman_project(u, eta, 4, g)
        assert np.max(np.abs(residual)) <= 1e-10

    def test_norm_monotonicity(self):
        g = grid256(half=1.5)
        eta = fields.sq_norm(1)(g.points)
        u = np.conj(g.points[:, 0]) * flat_top_indicator(g, radius=1.2)
        w = g.weights * np.exp(-eta)
        residual, _, norm_sq = bergman_project(u, eta, 8, g)
        before = float(np.real(np.dot(np.conj(u), w * u)))
        after = float(np.real(np.dot(np.conj(residual), w * residual)))
        assert after <= before + 1e-12
        # the returned norm carries the factor e^{-shift} of the projection's weights
        _, shift = shifted_weights(eta, g)
        assert norm_sq * math.exp(shift) == pytest.approx(after, rel=1e-12)

    def test_orthogonality(self):
        g = grid256(half=1.5)
        eta = fields.sq_norm(1)(g.points)
        u = np.conj(g.points[:, 0]) * flat_top_indicator(g, radius=1.2)
        residual, _, _ = bergman_project(u, eta, 8, g)
        rel = projection_orthogonality(u, u - residual, eta, 8, g)
        assert rel <= 1e-8

    def test_first_order_optimality(self):
        g = make_grid(unit_ball(1, radius=1.5), 128)
        eta = fields.sq_norm(1)(g.points)
        u = np.conj(g.points[:, 0]) * flat_top_indicator(g, radius=1.2)
        residual, coeffs, _ = bergman_project(u, eta, 4, g)
        h_vals = u - residual
        w = g.weights * np.exp(-eta)

        def objective(h):
            r = u - h
            return float(np.real(np.dot(np.conj(r), w * r)))

        base = objective(h_vals)
        from pshlab.extension import _monomial_values, monomial_exponents

        mono = _monomial_values(g.points, monomial_exponents(1, 4))
        for a in range(coeffs.size):
            for delta in (1e-4, -1e-4, 1e-4j):
                assert objective(h_vals + delta * mono[:, a]) >= base - 1e-15


class TestHormanderRatio:
    def test_weight_underflowing_on_the_support_raises(self):
        # the weight's largest value lies at the box edge, 1000 units of exponent above
        # its largest value on the unit disc that carries f
        phi = fields.get_field("re_linear:[[1000,0]]", 1)
        with pytest.raises(DegenerateWeightError, match="underflows to 0 at every node"):
            hormander_ratio([(phi, fields.sq_norm(1))], dbar_bump_form(), 4,
                            make_grid(unit_ball(1, radius=2.0), 64))

    @pytest.mark.parametrize("phi_name", ["zero", "sq_norm"])
    def test_subharmonic_ratio_below_one(self, phi_name):
        g = grid256()
        phi = (
            fields.ScalarField(
                "zero", 1, lambda z: np.zeros(z.shape[0]),
                grad=lambda z: np.zeros((z.shape[0], 1), complex),
                hess=lambda z: np.zeros((z.shape[0], 1, 1), complex),
            )
            if phi_name == "zero"
            else fields.sq_norm(1)
        )
        [result] = hormander_ratio([(phi, fields.sq_norm(1))], dbar_bump_form(), 10, g)
        assert result.residual <= 5e-3
        assert result.ratio <= 1.02

    def test_ratio_monotone_in_degree(self):
        g = grid256()
        phi = fields.sq_norm(1)
        ratios = [
            hormander_ratio([(phi, fields.sq_norm(1))], dbar_bump_form(), d, g)[0].ratio
            for d in (2, 6, 10)
        ]
        assert ratios[0] >= ratios[1] >= ratios[2] - 1e-12

    def test_witness_configuration_exceeds_one(self):
        # the localization recipe at r = 1/2 pushes the ratio above 1 for the
        # concave weight at some s in the schedule
        g = grid256()
        phi = fields.neg_sq_norm(1)
        z0 = np.zeros(1, dtype=complex)
        f = build_witness_form(z0, np.array([1.0]), 0.5)
        ratios = {}
        for s in (10.0, 100.0, 1000.0):
            psi = build_psi_s(z0, 0.5, s)
            ratios[s] = hormander_ratio([(phi, psi)], f, 10, g)[0].ratio
        assert max(ratios.values()) > 1.0

    def test_flat_psi_rejected(self):
        g = make_grid(unit_ball(1, radius=2.0), 64)
        flat = fields.ScalarField(
            "flat", 1, lambda z: np.zeros(z.shape[0]),
            grad=lambda z: np.zeros((z.shape[0], 1), complex),
            hess=lambda z: np.zeros((z.shape[0], 1, 1), complex),
        )
        with pytest.raises(ValueError, match="strictly subharmonic"):
            hormander_ratio([(flat, flat)], dbar_bump_form(), 4, g)

    def test_concave_weight_ratio_tends_to_s_over_s_minus_1(self):
        """For phi = -|z|^2 and psi_s the ratio tends to s/(s - 1) on a grid that
        resolves the weight's Gaussian width s^(-1/2).  The 256^2 grid of the
        radius-2 box does at s = 1000 (3e-15 relative) but not at s = 10^4,
        where its spacing 0.0157 exceeds the width 0.01 and the ratio reads
        0.9462 (criterion 8's witness/ratio_s10000); the 512^2 grid gives
        1.0001063654 there (6.4e-6 relative)."""
        z0 = np.zeros(1, dtype=complex)
        f = build_witness_form(z0, np.array([1.0]), 0.5)
        for nodes, s, rel in ((256, 1000.0, 1e-12), (512, 1e4, 2e-5)):
            g = make_grid(unit_ball(1, radius=2.0), nodes)
            [result] = hormander_ratio([(fields.neg_sq_norm(1), build_psi_s(z0, 0.5, s))], f, 10, g)
            assert result.ratio == pytest.approx(s / (s - 1.0), rel=rel)


def criterion_8_cases():
    """Criterion 8's right-hand sides, each with its (phi, psi) pairs."""
    z0 = np.zeros(1, dtype=complex)
    witness = build_witness_form(z0, np.array([1.0]), 0.5)
    zero = fields.ScalarField(
        "zero", 1, lambda z: np.zeros(z.shape[0]),
        grad=lambda z: np.zeros((z.shape[0], 1), complex),
        hess=lambda z: np.zeros((z.shape[0], 1, 1), complex),
    )
    return (
        (dbar_bump_form(), [(phi, fields.sq_norm(1)) for phi in (zero, fields.sq_norm(1))]),
        (witness, [(fields.neg_sq_norm(1), build_psi_s(z0, 0.5, s))
                   for s in (10.0, 100.0, 1000.0, 10000.0)]),
    )


def bits(norms) -> list:
    """The (total, shift) pair of each Scaled norm of a SolveResult, to compare with ==."""
    return [(x.total, x.shift) for x in norms]


class TestSweep:
    def test_criterion_8_cases_equal_the_one_pair_oracle(self):
        g = grid256()
        for f, weights in criterion_8_cases():
            for got, (phi, psi) in zip(hormander_ratio(weights, f, 10, g), weights, strict=True):
                want = hormander_ratio_one(phi, psi, f, 10, g)
                assert (got.ratio, got.residual, bits(got.norms)) == (
                    want.ratio, want.residual, bits(want.norms))

    def test_criterion_8_makes_one_transform_per_right_hand_side(self, monkeypatch):
        from pshlab import acceptance, dbar1d

        transform = dbar1d.cauchy_transform
        calls = []

        def counted(f_values, grid):
            calls.append(grid.shape)
            return transform(f_values, grid)

        monkeypatch.setattr(dbar1d, "cauchy_transform", counted)
        assert acceptance.criterion_hormander_ratio(0).passed
        assert calls == [(256, 256)] * 2


def whole_grid_transform(f_values, grid):
    """The transform as the linear convolution of the whole nn x nn grid with the kernel
    at all (2 nn - 1)^2 node offsets, computed circularly at length 2 nn per axis."""
    nn, h = grid.nodes_per_axis, float(grid.spacing[0])
    offsets = np.arange(-(nn - 1), nn) * h
    dz = offsets[:, None] + 1j * offsets[None, :]
    kernel = np.zeros(dz.shape, dtype=complex)
    kernel[dz != 0.0] = 1.0 / dz[dz != 0.0]
    f = np.asarray(f_values, dtype=complex).reshape(nn, nn)
    full = np.fft.ifft2(np.fft.fft2(f, (2 * nn, 2 * nn)) * np.fft.fft2(kernel, (2 * nn, 2 * nn)))
    return (full[nn - 1 : 2 * nn - 1, nn - 1 : 2 * nn - 1] * (h * h / math.pi)).ravel()


def off_centre_strip(grid):
    """dbar of a bump centred off the origin, cut to a horizontal strip: a support
    block with more rows than columns, away from the centre on both axes."""
    _, dzbar = bump_profile(0.8)
    pts = grid.points[:, 0]
    return np.where(np.abs(pts.imag + 0.4) < 0.3, dzbar(grid.points - (0.3 - 0.4j), 0), 0.0)


TRANSFORM_CASES = {
    "dbar_bump-256": (lambda g: dbar_bump_form().evaluate(g.points)[0], 256),
    "dbar_bump-255": (lambda g: dbar_bump_form().evaluate(g.points)[0], 255),
    "witness-256": (lambda g: criterion_8_cases()[1][0].evaluate(g.points)[0], 256),
    "witness-97": (lambda g: criterion_8_cases()[1][0].evaluate(g.points)[0], 97),
    "dbar_nu-256": (lambda g: resolve_spec("rhs", "dbar_nu", 1).evaluate(g.points)[0], 256),
    "off-centre-256": (off_centre_strip, 256),
    "off-centre-131": (off_centre_strip, 131),
}


class TestSupportRestriction:
    """The transform convolves the support block of f only, and the projection runs
    over the nodes where the weight is nonzero; both equal their whole-grid forms."""

    @pytest.mark.parametrize("case", sorted(TRANSFORM_CASES))
    def test_transform_equals_the_whole_grid_one(self, case):
        values, nodes = TRANSFORM_CASES[case]
        g = make_grid(unit_ball(1, radius=2.0), nodes)
        f = values(g)
        block = np.abs(f.reshape(nodes, nodes)) > 0.0
        rows, cols = np.flatnonzero(block.any(1)), np.flatnonzero(block.any(0))
        assert 0 < rows[0] and rows[-1] < nodes - 1 and cols.size < nodes - 2
        if case.startswith("off-centre"):
            assert rows.size > cols.size
            assert abs(rows[0] + rows[-1] - (nodes - 1)) > 5
        want = whole_grid_transform(f, g)
        got = cauchy_transform(f, g)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_fast_length_is_the_least_5_smooth_length(self):
        def least(n):
            k = n
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return n if k == 1 else least(n + 1)

        assert [_fast_length(n) for n in range(1, 3000)] == [least(n) for n in range(1, 3000)]
        assert (_fast_length(383), _fast_length(319)) == (384, 320)

    @pytest.mark.parametrize("case", ["dbar_bump", "witness", "readme"])
    def test_projection_equals_the_whole_grid_one(self, case):
        g = grid256()
        if case == "readme":  # the README dbar command's right-hand side and weight
            f = resolve_spec("rhs", "dbar_nu", 1)
            weights = [(resolve_spec("weight", "neg_sq_norm", 1),
                        resolve_spec("psi", "psi_s:[1000, 0.5]", 1))]
        else:
            f, weights = criterion_8_cases()[case == "witness"]
        u = cauchy_transform(f.evaluate(g.points)[0], g)
        for got, (phi, psi) in zip(hormander_ratio(weights, f, 10, g), weights, strict=True):
            wq, shift = shifted_weights(phi(g.points) + psi(g.points), g)
            rows = _centered_powers(g.points[:, 0], wq, 10)
            want = weighted_bergman_projection(u, wq, rows)[2]
            assert got.norms[0].shift == shift
            assert abs(got.norms[0].total - want) <= 1e-14 * want

    def test_criterion_8_and_the_readme_dbar_size_each_transform_by_its_support(
            self, monkeypatch, tmp_path):
        from pshlab import acceptance, cli, dbar1d

        transform, fft2, ifft2 = dbar1d.cauchy_transform, np.fft.fft2, np.fft.ifft2
        calls = []  # per transform: nodes per axis, support block extents, FFT shapes

        def recorded(f_values, grid):
            nn = grid.nodes_per_axis
            block = np.asarray(f_values).reshape(nn, nn) != 0.0
            extents = [np.ptp(np.flatnonzero(block.any(axis))) + 1 for axis in (1, 0)]
            calls.append((nn, extents, []))
            return transform(f_values, grid)

        def shaped(fft):
            def call(*args, **kwargs):
                out = fft(*args, **kwargs)
                calls[-1][2].append(out.shape)
                return out
            return call

        monkeypatch.setattr(dbar1d, "cauchy_transform", recorded)
        monkeypatch.setattr(np.fft, "fft2", shaped(fft2))
        monkeypatch.setattr(np.fft, "ifft2", shaped(ifft2))
        assert acceptance.criterion_hormander_ratio(0).passed
        argv = ["dbar", "--weight", "neg_sq_norm", "--psi", "psi_s:[1000, 0.5]",
                "--rhs", "dbar_nu", "--grid", "256", "--degree", "10",
                "--out", str(tmp_path / "solve.json")]
        cli.main(argv)  # its verdict (the residual gate) is not what this test checks
        assert [(nn, extents) for nn, extents, _ in calls] == [
            (256, [128, 128]), (256, [64, 64]), (256, [128, 128])]
        for nn, extents, shapes in calls:
            assert len(shapes) == 3
            for shape in shapes:
                for length, m in zip(shape, extents, strict=True):
                    assert nn + m - 1 <= length < 2 * nn

    def test_dbar1d_keeps_no_cache(self):
        from pshlab import dbar1d

        assert not [name for name, value in vars(dbar1d).items() if hasattr(value, "cache_info")]
