"""The block pass of the grid energies.

bochner_residual and estimate_functional_E take the stencils, points, Levi forms
and integrands of BAND_BLOCK band nodes at a time, keep only per-node scalars of
the whole band, and reduce them once.  Any block size gives the same bits; the
traced peak of criterion 4's n = 2 doubled-grid E stays small, and no array with
an entry per grid node other than the int32 position map is allocated in it; and
every error is raised where it was raised when the band was one block.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from pshlab import bochner, fields
from pshlab.bochner import (
    GridDiscretization, bochner_residual, bump_const_form, bump_zbar_form, make_grid,
    support_values,
)
from pshlab.errors import PoleInStencilError, WeightOverflowError
from pshlab.geometry import unit_ball
from pshlab.witness import (
    S_MAX, _witness_grid, alpha_from_f, build_psi_delta, build_psi_s, build_witness_form,
    default_grid_nodes, estimate_functional_E, scan_sharp_witness,
)

# a block far smaller than any band, the constant, and one block for the whole band
BLOCKS = pytest.mark.parametrize("block", [7, bochner.BAND_BLOCK, 10**9],
                                 ids=["7", "BAND_BLOCK", "whole-band"])


def bare(phi: fields.ScalarField) -> fields.ScalarField:
    """phi without grad and hess: the stencil gradient and the finite-difference Levi form."""
    return fields.ScalarField(phi.name + "_bare", phi.n, phi.evaluate)


def energy_cases():
    """(name, grid, form, phi): n = 1 and 2, a form with a zero component, a weight
    without grad."""
    grid1 = make_grid(unit_ball(1, radius=1.3), 64)
    grid2 = make_grid(unit_ball(2, radius=1.3), 16)
    forms = [
        ("n1-const", grid1, bump_const_form(np.array([1.0]), radius=0.9)),
        ("n1-zbar", grid1, bump_zbar_form(1, radius=0.9)),
        ("n2-zero-component", grid2, bump_const_form(np.array([1.0, 0.0]), radius=0.65)),
        ("n2-zbar", grid2, bump_zbar_form(2, radius=0.65)),
    ]
    for name, grid, form in forms:
        n = grid.n
        for phi in (fields.sq_norm(n), fields.neg_gauss(n), bare(fields.log1p_sq(n))):
            yield f"{name}-{phi.name}", grid, form, phi


def energy_bits(grid, form, phi):
    """The totals and shifts of the Bochner terms and of E, as the hex strings of their doubles."""
    n = grid.n
    [rep] = bochner_residual(form, [phi], grid)
    alpha = support_values(form, grid)[::2]
    e = estimate_functional_E(alpha, phi, build_psi_s(np.zeros(n), 0.9, 10.0),
                              fields.scaled_sq_omega(0.5, n), grid)
    return [x.hex() for t in (*rep.terms, e) for x in (t.total, t.shift)]


@pytest.fixture(scope="module")
def one_block_bits():
    """Every case's bits with the whole band as one block."""
    mp = pytest.MonkeyPatch()
    mp.setattr(bochner, "BAND_BLOCK", 10**9)
    try:
        return {name: energy_bits(grid, form, phi) for name, grid, form, phi in energy_cases()}
    finally:
        mp.undo()


@BLOCKS
def test_any_block_size_gives_the_same_bits(block, one_block_bits, monkeypatch):
    monkeypatch.setattr(bochner, "BAND_BLOCK", block)
    for name, grid, form, phi in energy_cases():
        idx = support_values(form, grid)[0]
        if block == 7:
            assert grid.stencil_band(idx).size > 100 * block  # many blocks
        assert energy_bits(grid, form, phi) == one_block_bits[name], name


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def doubled_grid_case():
    """Criterion 4's saddle certificate and its E arguments on the doubled grid
    (32^4 nodes), built as scan_sharp_witness builds them."""
    phi, omega = fields.saddle(2.0), fields.zero_omega(2)
    cert = scan_sharp_witness(phi, omega, unit_ball(2), S_MAX, default_grid_nodes(2)).certificate
    grid = _witness_grid(cert.z0, cert.r, 2 * cert.grid_nodes)
    idx, pts, fv = support_values(build_witness_form(cert.z0, cert.xi, cert.r), grid)
    alpha = alpha_from_f(fv.T, omega(pts)[0] + cert.s * np.eye(2)).T  # omega is constant
    return cert, (idx, alpha), phi, build_psi_s(cert.z0, cert.r, cert.s), omega, grid


def traced_peak(compute):
    """The value of compute() and the traced peak above what was live when it started."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        value = compute()
        return value, tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def test_doubled_grid_energy_peak(doubled_grid_case):
    # the whole-grid complex stencil source, the band arrays of every derivative and
    # the whole-grid trapezoid weights took this peak to 74 MB
    cert, alpha, phi, psi, omega, grid = doubled_grid_case
    assert grid.size == 32**4
    fresh = GridDiscretization(grid.bounds, grid.nodes_per_axis)
    value, peak = traced_peak(lambda: estimate_functional_E(alpha, phi, psi, omega, fresh))
    assert (value.total, value.shift) == (cert.E_doubled.total, cert.E_doubled.shift)
    assert peak < 30e6


def test_doubled_grid_energy_holds_no_float_array_per_grid_node(doubled_grid_case):
    # the same support and band on a grid 8 nodes wider per axis, with the same
    # spacing: the peak grows by what the pass holds per grid node, the int32
    # position map (4 bytes), and by less than a float array's 8
    cert, (idx, values), phi, psi, omega, grid = doubled_grid_case
    h = grid.spacing[:, None] * np.array([-4.0, 4.0])
    wide = GridDiscretization(grid.bounds + h, grid.nodes_per_axis + 8)
    assert np.allclose(wide.spacing, grid.spacing, rtol=1e-12, atol=0.0)
    sub = np.unravel_index(idx, grid.shape)
    wide_idx = np.ravel_multi_index(tuple(s + 4 for s in sub), wide.shape)
    fresh = GridDiscretization(grid.bounds, grid.nodes_per_axis)
    _, peak = traced_peak(lambda: estimate_functional_E((idx, values), phi, psi, omega, fresh))
    wide_value, wide_peak = traced_peak(
        lambda: estimate_functional_E((wide_idx, values), phi, psi, omega, wide))
    assert wide_value.value == pytest.approx(cert.E_doubled.value, rel=1e-9)
    assert (wide_peak - peak) / (wide.size - grid.size) < 6.0


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


def untouchable(n):
    """A weight and an omega that fail the test if any of them is evaluated."""
    def unused(z):
        raise AssertionError("a field was evaluated")

    return fields.ScalarField("unused", n, unused, grad=unused, hess=unused), \
        fields.HermitianField(n, unused)


def late_node(grid, form, where):
    """The point of the last band node (in band order) that where(band, idx) selects."""
    idx = support_values(form, grid)[0]
    band = grid.stencil_band(idx)
    return grid.points_at(band[np.flatnonzero(where(band, idx))[-1:]])[0]


def recording_levi(phi, calls):
    """phi, with every call of its Hessian recorded."""
    def hess(z):
        calls.append(z.shape[0])
        return phi.hess(z)

    return dataclasses.replace(phi, hess=hess)


@BLOCKS
@pytest.mark.parametrize("n, nodes, radius", [(1, 21, 0.75), (2, 11, 0.5)])
def test_margin_is_refused_before_any_field_is_evaluated(n, nodes, radius, block, monkeypatch):
    # a form with a node three layers inside an edge, where four are needed
    monkeypatch.setattr(bochner, "BAND_BLOCK", block)
    grid = make_grid(unit_ball(n, radius=1.0), nodes)
    form = bump_const_form(np.eye(n)[0], radius=radius)
    phi, omega = untouchable(n)
    with pytest.raises(ValueError, match="^grid does not contain the form's support with a stencil margin$"):
        bochner_residual(form, [phi], grid)
    with pytest.raises(ValueError, match="^grid does not contain the form's support with a stencil margin$"):
        estimate_functional_E(support_values(form, grid)[::2], phi, phi, omega, grid)


@BLOCKS
def test_pole_in_the_support_is_refused_before_any_levi_form(block, monkeypatch):
    # the pole of log|z - a| at the support node of the last block
    monkeypatch.setattr(bochner, "BAND_BLOCK", block)
    grid = make_grid(unit_ball(1, radius=1.3), 64)
    form = bump_const_form(np.array([1.0]), radius=0.9)
    pole = late_node(grid, form, lambda band, idx: np.isin(band, idx))
    calls = []
    phi = recording_levi(fields.log_abs(pole, 1), calls)
    # alone, and second after a weight without a pole: every weight's gradient is
    # taken before the first block, so neither weight's Levi form is taken
    for weights in ([phi], [recording_levi(fields.sq_norm(1), calls), phi]):
        with pytest.raises(PoleInStencilError, match="^pole in the support of the form$"):
            bochner_residual(form, weights, grid)
    assert calls == []


@BLOCKS
def test_pole_in_the_stencil_band_is_refused_before_any_levi_form(block, monkeypatch):
    # a weight without grad, -inf at the last band node off the support, which the
    # stencils of the support read; its Levi form would raise ContinuityRequiredError
    monkeypatch.setattr(bochner, "BAND_BLOCK", block)
    grid = make_grid(unit_ball(1, radius=1.3), 64)
    form = bump_const_form(np.array([1.0]), radius=0.9)
    pole = late_node(grid, form, lambda band, idx: ~np.isin(band, idx))
    calls = []
    bad = build_psi_delta(pole, 0.0, 1)
    for weights in ([bad], [recording_levi(fields.sq_norm(1), calls), bad]):
        with pytest.raises(PoleInStencilError, match="^pole in the stencil band of the form$"):
            bochner_residual(form, weights, grid)
    assert calls == []  # not even the first weight's Levi form


@BLOCKS
def test_weight_at_minus_inf_overflows_before_its_levi_form(block, monkeypatch):
    # E of a weight without hess that is -inf at the last band node: the exponent
    # overflows there before its finite-difference Levi form reads the pole
    monkeypatch.setattr(bochner, "BAND_BLOCK", block)
    grid = make_grid(unit_ball(1, radius=1.3), 64)
    form = bump_const_form(np.array([1.0]), radius=0.9)
    pole = late_node(grid, form, lambda band, idx: np.ones(band.size, dtype=bool))
    phi = bare(fields.log_abs(pole, 1))
    with pytest.raises(WeightOverflowError, match="^weight overflow: e\\^\\{-weight\\} is \\+inf at a node$"):
        estimate_functional_E(support_values(form, grid)[::2], phi,
                              build_psi_s(np.zeros(1), 0.9, 10.0), fields.zero_omega(1), grid)


@BLOCKS
def test_bochner_weight_at_minus_inf_overflows_before_its_levi_form(block, monkeypatch):
    # the Bochner terms of a weight that is -inf at the last band node off the support,
    # where weight_gradient does not evaluate it: the exponent overflows there before
    # the block's Levi form reads the pole
    monkeypatch.setattr(bochner, "BAND_BLOCK", block)
    grid = make_grid(unit_ball(1, radius=1.3), 64)
    form = bump_const_form(np.array([1.0]), radius=0.9)
    pole = late_node(grid, form, lambda band, idx: ~np.isin(band, idx))
    calls = []
    phi = recording_levi(fields.log_abs(pole, 1), calls)
    idx = support_values(form, grid)[0]
    band = grid.stencil_band(idx)
    # alone, and second after a weight without a pole, whose integrands each block
    # takes first: one Levi form of phi per block before the pole's
    for weights in ([phi], [fields.sq_norm(1), phi]):
        calls.clear()
        with pytest.raises(WeightOverflowError,
                           match="^weight overflow: e\\^\\{-weight\\} is \\+inf at a node$"):
            bochner_residual(form, weights, grid)
        assert len(calls) == np.flatnonzero(~np.isin(band, idx))[-1] // block
