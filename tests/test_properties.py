"""Exact invariances under a constant shift phi -> phi + c, |c| <= 2000, and
of the sub-mean-value margin under translation and unitary change of frame.

Scale-free outputs do not change, log-scale outputs shift by c, and outputs
on the linear scale are multiplied by e^{-c} whenever that is a finite
double; otherwise they raise WeightOverflowError and are never capped.
Tolerances come from float64 rounding of phi + c: ulp(2000) is 2.3e-13.
The cylinder z0 + A(P) carried by a translation or a unitary U is again a
cylinder, so the margins agree up to the rounding of the mapped nodes.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pshlab import fields
from pshlab.bochner import bochner_residual, bump_zbar_form, make_grid
from pshlab.dbar1d import hormander_ratio
from pshlab.errors import WeightOverflowError
from pshlab.extension import (
    coarse_extension_bound,
    constant_one,
    exp_linear,
    jensen_chain_check,
    optimal_extension_margin,
)
from pshlab.geometry import HolomorphicCylinder, QuadratureRule, random_unitary, unit_ball
from pshlab.meanvalue import submean_test
from pshlab.witness import (
    _witness_grid,
    alpha_from_f,
    build_psi_s,
    build_witness_form,
    estimate_functional_E,
    make_cutoff,
)

LOG_MAX = math.log(np.finfo(float).max)
RULE = QuadratureRule("tensor-grid", 1024, seed=0)
DISC = HolomorphicCylinder(np.zeros(1, dtype=complex), np.eye(1), 1.0)
Z0 = np.zeros(1, dtype=complex)

shifts = st.floats(min_value=-2000.0, max_value=2000.0, allow_nan=False)
property_settings = settings(max_examples=20, deadline=None)


def shifted(phi: fields.ScalarField, c: float) -> fields.ScalarField:
    n = phi.n
    const = fields.ScalarField(
        f"const:{c!r}", n,
        lambda z: np.full(z.shape[0], c),
        grad=lambda z: np.zeros((z.shape[0], n), dtype=complex),
        hess=lambda z: np.zeros((z.shape[0], n, n), dtype=complex),
    )
    return phi + const


def shift_tol(c: float) -> float:
    return 1e-12 * (1.0 + abs(c))


def check_scaled(compute, log_value: float, c: float) -> None:
    """compute() is e^{log_value - c} when that is a finite double, else raises."""
    expected = log_value - c
    assume(abs(expected - LOG_MAX) > 1e-9)  # too close to the threshold to call
    if expected > LOG_MAX:
        with pytest.raises(WeightOverflowError):
            compute()
        return
    value = compute()
    if expected < -700.0:
        assert abs(value) < 1e-290
    else:
        assert math.log(abs(value)) == pytest.approx(expected, abs=1e-9)


@lru_cache(maxsize=None)
def witness_setup():
    omega = fields.zero_omega(1)
    r, s = 0.5, 100.0
    _, f = build_witness_form(Z0, np.array([1.0]), r, make_cutoff("witness"))
    grid = _witness_grid(Z0, r, 32)
    alpha = alpha_from_f(f.evaluate(grid.points).T, omega(grid.points) + s * np.eye(1)).T
    return alpha, build_psi_s(Z0, r, s), omega, grid


@lru_cache(maxsize=None)
def dbar_setup():
    grid = make_grid(unit_ball(1, radius=1.2), 64)
    _, f = build_witness_form(Z0, np.array([1.0]), 0.5, make_cutoff("witness"))
    return grid, f, build_psi_s(Z0, 0.5, 100.0)


@property_settings
@given(c=shifts)
@example(c=2000.0)
@example(c=-2000.0)
def test_submean_margin_invariant(c):
    phi = fields.sq_norm(1)
    cyl = HolomorphicCylinder(np.array([0.3 + 0.1j]), np.eye(1), 0.4)
    base = submean_test(phi, cyl, RULE).margin
    got = submean_test(shifted(phi, c), cyl, RULE).margin
    assert got == pytest.approx(base, abs=shift_tol(c))


@property_settings
@given(c=shifts)
@example(c=2000.0)
@example(c=-2000.0)
def test_jensen_residuals_invariant(c):
    phi = fields.sq_norm(1)
    cand = exp_linear(np.array([0.5 + 0.5j]), Z0)
    base = jensen_chain_check(phi, Z0, DISC, cand, 4.0, RULE)
    got = jensen_chain_check(shifted(phi, c), Z0, DISC, cand, 4.0, RULE)
    for g, b in zip(got, base):
        assert g == pytest.approx(b, abs=shift_tol(c))


@property_settings
@given(c=shifts)
@example(c=2000.0)
@example(c=-2000.0)
def test_hormander_ratio_invariant(c):
    grid, f, psi = dbar_setup()
    phi = fields.neg_sq_norm(1)
    base = hormander_ratio(phi, psi, f, 4, grid).ratio
    got = hormander_ratio(shifted(phi, c), psi, f, 4, grid).ratio
    assert got == pytest.approx(base, rel=1e-9)


@property_settings
@given(c=shifts)
@example(c=2000.0)
@example(c=-2000.0)
def test_bochner_residual_invariant(c):
    grid = make_grid(unit_ball(1, radius=1.3), 48)
    alpha = bump_zbar_form(1, radius=0.9)
    phi = fields.sq_norm(1)
    base = bochner_residual(alpha, phi, grid).residual
    got = bochner_residual(alpha, shifted(phi, c), grid).residual
    assert got == pytest.approx(base, rel=1e-9)


@property_settings
@given(c=shifts, m=st.sampled_from([1, 4, 32]))
@example(c=-2000.0, m=32)
@example(c=2000.0, m=32)
def test_coarse_bounds_shift_by_c(c, m):
    phi = fields.sq_norm(1)
    one = constant_one(Z0)
    base = coarse_extension_bound(phi, Z0, DISC, one, 0.0, m, 2.0, RULE)
    got = coarse_extension_bound(shifted(phi, c), Z0, DISC, one, 0.0, m, 2.0, RULE)
    for g, b in zip(got, base):
        assert g == pytest.approx(b + c, abs=1e-11 * (1.0 + abs(c)))


@property_settings
@given(c=shifts)
@example(c=-2000.0)
@example(c=2000.0)
@example(c=-712.0)
def test_functional_E_scales(c):
    alpha, psi, omega, grid = witness_setup()
    phi = fields.neg_sq_norm(1)
    e0 = estimate_functional_E(alpha, phi, psi, omega, grid)
    assert e0 < 0.0

    def compute():
        value = estimate_functional_E(alpha, shifted(phi, c), psi, omega, grid)
        assert value <= 0.0
        return value

    check_scaled(compute, math.log(-e0), c)


@property_settings
@given(c=shifts)
@example(c=-2000.0)
@example(c=2000.0)
@example(c=-709.9)
def test_extension_lhs_scales(c):
    phi = fields.neg_sq_norm(1)
    cand = constant_one(Z0)
    log_lhs = math.log(optimal_extension_margin(phi, Z0, DISC, cand, 2.0, RULE).lhs)
    rep = optimal_extension_margin(shifted(phi, c), Z0, DISC, cand, 2.0, RULE)
    check_scaled(lambda: rep.lhs, log_lhs, c)


FIELDS_C2 = {
    "saddle": fields.saddle(2.0), "cross": fields.cross(),
    "log1p_sq": fields.log1p_sq(2), "neg_gauss": fields.neg_gauss(2),
}
coords = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
points_c2 = st.tuples(coords, coords, coords, coords).map(
    lambda x: np.array([x[0] + 1j * x[1], x[2] + 1j * x[3]])
)
radii = st.floats(min_value=0.05, max_value=2.0)
frame_seeds = st.integers(min_value=0, max_value=2**32 - 1)
rule_kinds = st.sampled_from(["tensor-grid", "quasi-random"])


def composed(phi: fields.ScalarField, inner) -> fields.ScalarField:
    """phi after the point map inner, applied to (m, n) point arrays."""
    return fields.ScalarField(f"{phi.name}*", phi.n, lambda z: phi.evaluate(inner(z)))


def assert_same_margin(got, expected) -> None:
    assert abs(got.margin - expected.margin) <= 1e-12 * abs(expected.margin) + 1e-12


@property_settings
@given(name=st.sampled_from(sorted(FIELDS_C2)), z0=points_c2, b=points_c2,
       seed=frame_seeds, r=radii, s=radii, kind=rule_kinds)
def test_submean_margin_translation_invariant(name, z0, b, seed, r, s, kind):
    phi = FIELDS_C2[name]
    frame = random_unitary(seed, 2)
    rule = QuadratureRule(kind, 4096, seed=3)
    got = submean_test(composed(phi, lambda z: z + b), HolomorphicCylinder(z0, frame, r, s), rule)
    expected = submean_test(phi, HolomorphicCylinder(z0 + b, frame, r, s), rule)
    assert_same_margin(got, expected)


@property_settings
@given(name=st.sampled_from(sorted(FIELDS_C2)), z0=points_c2, seed=frame_seeds,
       u_seed=frame_seeds, r=radii, s=radii, kind=rule_kinds)
def test_submean_margin_unitary_invariant(name, z0, seed, u_seed, r, s, kind):
    phi = FIELDS_C2[name]
    frame = random_unitary(seed, 2)
    u = random_unitary(u_seed, 2)
    rule = QuadratureRule(kind, 4096, seed=3)
    got = submean_test(composed(phi, lambda z: z @ u.T), HolomorphicCylinder(z0, frame, r, s), rule)
    expected = submean_test(phi, HolomorphicCylinder(u @ z0, u @ frame, r, s), rule)
    assert_same_margin(got, expected)
