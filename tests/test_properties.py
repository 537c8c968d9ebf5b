"""Exact invariances under a constant shift phi -> phi + c, |c| <= 2000, and
of the sub-mean-value margin under translation and unitary change of frame.

Scale-free outputs do not change, log-scale outputs shift by c, and a weighted
sum, a fields.Scaled, is multiplied by e^{-c} at every c: its sign does not
change and its log_abs shifts by c; its value is that product where it is a
finite double and the infinity of its sign where it is larger, never capped
and never an error.  Tolerances come from float64 rounding of phi + c:
ulp(2000) is 2.3e-13.
The cylinder z0 + A(P) carried by a translation or a unitary U is again a
cylinder, so the margins agree up to the rounding of the mapped nodes.
The sharp-estimate witness scan certifies every Levi gap of a family that
is negative on the whole region, however its depth is spread.  Translating
the grid box, the form and the weight together by whole grid spacings leaves
the Bochner residual and its four terms unchanged up to rounding, and so
do swapping z1 and z2 at n = 2 and the quarter turn z1 -> i z1 of a centered box;
the same three maps of (phi, omega, form, psi_s) leave the sign functional E
unchanged up to rounding.
The quarter turn also leaves the n = 1 estimate ratio unchanged up to rounding.
A unitary U maps the cylinder U^{-1}(z0 + A P) onto z0 + A P node for node, so
the extension margin, the Jensen residuals, the coarse extension bounds and the
best constant of phi o U and f o U there equal those of phi and f up to rounding.
"""

import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pshlab import fields
from pshlab.bochner import (
    FormField01,
    bochner_residual,
    bump_const_form,
    bump_zbar_form,
    make_grid,
    support_values,
    zero_field,
)
from pshlab.dbar1d import hormander_ratio
from pshlab.extension import (
    best_extension_constant,
    coarse_extension_bound,
    constant_one,
    exp_linear,
    jensen_chain_check,
    optimal_extension_margin,
)
from pshlab.geometry import (
    DomainBox,
    HolomorphicCylinder,
    QuadratureRule,
    random_unitary,
    seeded_frame,
    unit_ball,
)
from pshlab.meanvalue import submean_test
from pshlab.witness import (
    S_MAX,
    _witness_grid,
    coarse_rhs_bound,
    s_schedule,
    alpha_from_f,
    build_psi_s,
    build_witness_form,
    estimate_functional_E,
    scan_sharp_witness,
)

from grid_helpers import nonzero_nodes, translated_form

LOG_MAX = math.log(np.finfo(float).max)
RULE = QuadratureRule("tensor-grid", 1024, seed=0)
DISC = HolomorphicCylinder(np.zeros(1, dtype=complex), np.eye(1), 1.0)
Z0 = np.zeros(1, dtype=complex)

shifts = st.floats(min_value=-2000.0, max_value=2000.0, allow_nan=False)
property_settings = settings(max_examples=20, deadline=None)


def shifted(phi: fields.ScalarField, c: float) -> fields.ScalarField:
    """phi + c, with phi's derivatives."""
    return dataclasses.replace(
        phi, name=f"{phi.name}+{c!r}", evaluate=lambda z: phi.evaluate(z) + c
    )


def shift_tol(c: float) -> float:
    return 1e-12 * (1.0 + abs(c))


def check_scaled(got: fields.Scaled, base: fields.Scaled, c: float) -> None:
    """got is base times e^{-c}: the same sign and log_abs smaller by c, at every c; its
    value is that number where it is a finite double, the infinity of its sign above."""
    assert got.sign == base.sign
    expected = base.log_abs - c
    assert got.log_abs == pytest.approx(expected, abs=shift_tol(c))
    if expected > LOG_MAX + 1e-9:
        assert got.value == got.sign * math.inf
    elif -700.0 < expected < LOG_MAX - 1e-9:
        assert math.log(abs(got.value)) == pytest.approx(expected, abs=shift_tol(c))


@lru_cache(maxsize=None)
def witness_setup():
    omega = fields.zero_omega(1)
    r, s = 0.5, 100.0
    f = build_witness_form(Z0, np.array([1.0]), r)
    grid = _witness_grid(Z0, r, 32)
    alpha = alpha_from_f(f.evaluate(grid.points).T, omega(grid.points) + s * np.eye(1)).T
    return nonzero_nodes(alpha), build_psi_s(Z0, r, s), omega, grid


@lru_cache(maxsize=None)
def dbar_setup():
    grid = make_grid(unit_ball(1, radius=1.2), 64)
    f = build_witness_form(Z0, np.array([1.0]), 0.5)
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
    base = jensen_chain_check(phi, DISC, cand, 4.0, RULE)
    got = jensen_chain_check(shifted(phi, c), DISC, cand, 4.0, RULE)
    for g, b in zip(got, base):
        assert g == pytest.approx(b, abs=shift_tol(c))


@property_settings
@given(c=shifts)
@example(c=2000.0)
@example(c=-2000.0)
def test_hormander_ratio_invariant(c):
    grid, f, psi = dbar_setup()
    phi = fields.neg_sq_norm(1)
    [base] = hormander_ratio([(phi, psi)], f, 4, grid)
    [got] = hormander_ratio([(shifted(phi, c), psi)], f, 4, grid)
    assert got.ratio == pytest.approx(base.ratio, rel=1e-9)
    for g, b in zip(got.norms, base.norms, strict=True):
        check_scaled(g, b, c)


@property_settings
@given(c=shifts)
@example(c=2000.0)
@example(c=-2000.0)
def test_bochner_residual_invariant(c):
    grid = make_grid(unit_ball(1, radius=1.3), 48)
    alpha = bump_zbar_form(1, radius=0.9)
    phi = fields.sq_norm(1)
    [base] = bochner_residual(alpha, [phi], grid)
    [got] = bochner_residual(alpha, [shifted(phi, c)], grid)
    assert got.residual == pytest.approx(base.residual, rel=1e-9)
    for g, b in zip(got.terms, base.terms, strict=True):
        check_scaled(g, b, c)


@property_settings
@given(c=shifts, m=st.sampled_from([1, 4, 32]))
@example(c=-2000.0, m=32)
@example(c=2000.0, m=32)
def test_coarse_bounds_shift_by_c(c, m):
    phi = fields.sq_norm(1)
    one = constant_one(Z0)
    base = coarse_extension_bound(phi, DISC, one, 0.0, m, 2.0, RULE)
    got = coarse_extension_bound(shifted(phi, c), DISC, one, 0.0, m, 2.0, RULE)
    for g, b in zip(got, base):
        assert g == pytest.approx(b + c, abs=1e-11 * (1.0 + abs(c)))


@property_settings
@given(c=shifts, m=st.sampled_from([1, 3]))
@example(c=-2000.0, m=3)
@example(c=2000.0, m=3)
@example(c=-2000.0, m=1)
@example(c=2000.0, m=1)
def test_coarse_rhs_bound_scales(c, m):
    # C_m int |alpha_eps|^p e^{-(m phi + psi_delta)} and C C_m e^{-m inf phi} / eps^p
    # are both multiplied by e^{-m c}
    phi = fields.sq_norm(1)
    args = (2.0, np.array([0.2 + 0.1j]), [(0.5, 64)], [0.25], [(m, 0.5)])
    [base] = coarse_rhs_bound(phi, *args)
    [got] = coarse_rhs_bound(shifted(phi, c), *args)
    check_scaled(got.rhs_integral, base.rhs_integral, m * c)
    check_scaled(got.bound, base.bound, m * c)
    assert got.verified == base.verified


@property_settings
@given(c=shifts)
@example(c=-2000.0)
@example(c=2000.0)
@example(c=-712.0)
def test_functional_E_scales(c):
    alpha, psi, omega, grid = witness_setup()
    phi = fields.neg_sq_norm(1)
    e0 = estimate_functional_E(alpha, phi, psi, omega, grid)
    assert e0.sign < 0
    check_scaled(estimate_functional_E(alpha, shifted(phi, c), psi, omega, grid), e0, c)


@property_settings
@given(c=shifts)
@example(c=-2000.0)
@example(c=2000.0)
@example(c=-709.9)
def test_extension_lhs_scales(c):
    # the lhs (1/mu) int |f|^p e^{-phi} and the rhs e^{-phi(z0)} = e^{-c}: lhs > rhs at every
    # c, so the margin is negative, -inf past the double range, or 0.0 where both underflow
    phi = fields.neg_sq_norm(1)
    cand = constant_one(Z0)
    base = optimal_extension_margin(phi, DISC, cand, 2.0, RULE)
    rep = optimal_extension_margin(shifted(phi, c), DISC, cand, 2.0, RULE)
    check_scaled(rep.lhs, base.lhs, c)
    check_scaled(rep.rhs, base.rhs, c)
    assert base.margin < 0.0 and rep.margin <= 0.0
    assert rep.lhs.log_abs > rep.rhs.log_abs + math.log1p(1e-9)


@property_settings
@given(c=shifts)
@example(c=-2000.0)
@example(c=2000.0)
def test_best_constant_scales(c):
    phi = fields.neg_sq_norm(1)
    _, base = best_extension_constant(phi, DISC, 4, RULE)
    _, got = best_extension_constant(shifted(phi, c), DISC, 4, RULE)
    check_scaled(got, base, c)


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


def turned_cylinder(cyl: HolomorphicCylinder, u: np.ndarray) -> HolomorphicCylinder:
    """U^{-1}(cyl) for a unitary U: centre U^{-1} z0, frame U^{-1} A, the same radii."""
    ui = u.conj().T
    return HolomorphicCylinder(ui @ cyl.center, ui @ cyl.frame, cyl.r, cyl.s)


def extension_outputs(phi, cyl, f, degree) -> tuple:
    """The extension layer's outputs on a cylinder: linear-scale values (compared
    relatively) and log-scale ones (compared absolutely)."""
    rule = QuadratureRule("tensor-grid", 4096)
    rep = optimal_extension_margin(phi, cyl, f, 2.0, rule)
    jensen = jensen_chain_check(phi, cyl, f, 3.0, rule)
    b_m, b_tilde = coarse_extension_bound(phi, cyl, f, 0.5, 4, 2.0, rule)
    _, best = best_extension_constant(phi, cyl, degree, rule)
    linear = {"lhs": rep.lhs.value, "rhs": rep.rhs.value, "best": best.value}
    logs = {"margin/scale": rep.margin / max(rep.lhs.value, rep.rhs.value),
            "jensen_residual": rep.jensen_residual, "log_mean_residual": rep.log_mean_residual,
            "conclusion_margin": rep.conclusion_margin, "jensen_p3": jensen, "b_m": b_m,
            "b_tilde": b_tilde}
    return linear, logs


centers_ext = st.tuples(*[st.floats(min_value=-1.5, max_value=1.5)] * 4).map(
    lambda x: np.array([x[0] + 1j * x[1], x[2] + 1j * x[3]])
)
radii_ext = st.floats(min_value=0.1, max_value=1.0)


@property_settings
@given(name=st.sampled_from(sorted(FIELDS_C2)), z0=centers_ext, seed=frame_seeds,
       u_seed=frame_seeds, r=radii_ext, s=radii_ext, degree=st.sampled_from([4, 8]))
@example(name="neg_gauss", z0=np.zeros(2, dtype=complex), seed=1, u_seed=2, r=1.0, s=1.0,
         degree=8)
# a thin cylinder off the origin, where monomials of z - z0 not scaled to the cylinder
# give degree-8 best constants 9.2e-6 apart (relative) in the two frames
@example(name="cross", z0=np.array([0.37 + 1.0j, -1.25 + 0.86j]), seed=3, u_seed=4, r=0.889,
         s=0.153, degree=8)
def test_extension_layer_unitary_invariant(name, z0, seed, u_seed, r, s, degree):
    phi, u = FIELDS_C2[name], seeded_frame(u_seed, 2)
    cyl = HolomorphicCylinder(z0, seeded_frame(seed, 2), r, s)
    f = exp_linear(np.array([0.5 + 0.5j, -0.25j]), z0)
    linear, logs = extension_outputs(phi, cyl, f, degree)
    linear_u, logs_u = extension_outputs(
        composed(phi, lambda z: z @ u.T), turned_cylinder(cyl, u), lambda z: f(z @ u.T), degree)
    # the best constant solves a weighted Gram system, whose conditioning grows with the
    # spread of e^{-phi} over the cylinder: its largest gap in 400 random cases of this
    # test was 5.6e-12, the others' 9e-15
    for key, value in linear.items():
        tol = 1e-10 if key == "best" else 1e-12
        assert abs(linear_u[key] - value) <= tol * abs(value), key
    for key, value in logs.items():
        assert np.allclose(logs_u[key], value, rtol=0.0, atol=1e-12), key


@property_settings
@given(c=st.floats(min_value=0.0, max_value=2.0))
@example(c=0.0)
@example(c=0.5)
@example(c=2.0)
def test_neg_sq_norm_certified_against_scaled_form(c):
    # the gap -1 - c|z|^2 is negative on the whole disc and deepest on its
    # boundary circle, where no witness ball fits
    cert = scan_sharp_witness(
        fields.neg_sq_norm(1), fields.scaled_sq_omega(c, 1), unit_ball(1), S_MAX
    ).certificate
    assert cert is not None
    assert cert.E.sign < 0 and cert.E_doubled.sign < 0


def translated_field(phi: fields.ScalarField, a) -> fields.ScalarField:
    """z -> phi(z - a), with its gradient and Hessian translated alike."""
    return dataclasses.replace(
        phi, name=f"{phi.name}@{a!r}", evaluate=lambda z: phi.evaluate(z - a),
        grad=lambda z: phi.grad(z - a), hess=lambda z: phi.hess(z - a),
    )


def term_values(got, want):
    """The (got, want) pairs of the values of two Bochner reports' four terms."""
    return [(g.value, w.value) for g, w in zip(got.terms, want.terms, strict=True)]


TRANSLATION_WEIGHTS = {
    "sq_norm": fields.sq_norm, "log1p_sq": fields.log1p_sq,
    "neg_gauss": fields.neg_gauss, "zero": zero_field,
}


@pytest.mark.parametrize("steps", [3, 1000])
@pytest.mark.parametrize("weight", sorted(TRANSLATION_WEIGHTS))
@pytest.mark.parametrize("form", ["bump_const", "bump_zbar2"])
@pytest.mark.parametrize("n, nodes, radius", [(1, 256, 0.9), (2, 24, 0.8)], ids=["n1", "n2"])
def test_bochner_residual_translation_invariant(n, nodes, radius, form, weight, steps):
    # criterion 2's box, forms and node counts, moved by whole spacings along every axis
    box = unit_ball(n, radius=1.3)
    grid = make_grid(box, nodes)
    h = grid.spacing[0]
    a = np.full(n, steps * h * (1.0 + 1.0j))
    xi = np.array([1.0]) if n == 1 else np.array([0.8, 0.6j])
    alpha = (bump_const_form(xi, radius=radius) if form == "bump_const"
             else bump_zbar_form(n, radius=radius))
    phi = TRANSLATION_WEIGHTS[weight](n)
    moved_grid = make_grid(unit_ball(n, radius=1.3, center=a), nodes)
    assert np.all(np.abs(moved_grid.spacing - grid.spacing) <= 1e-12 * h)
    [base] = bochner_residual(alpha, [phi], grid)
    [moved] = bochner_residual(translated_form(alpha, a), [translated_field(phi, a)], moved_grid)
    for got, want in term_values(moved, base):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert abs(moved.residual - base.residual) <= 1e-13


def swapped_field(phi: fields.ScalarField) -> fields.ScalarField:
    """(z1, z2) -> phi(z2, z1), with its gradient and Hessian swapped alike."""
    return dataclasses.replace(
        phi, name=f"{phi.name}@swap", evaluate=lambda z: phi.evaluate(z[:, ::-1]),
        grad=lambda z: phi.grad(z[:, ::-1])[:, ::-1],
        hess=lambda z: phi.hess(z[:, ::-1])[:, ::-1, ::-1],
    )


def swapped_form(alpha: FormField01) -> FormField01:
    """The pull-back of alpha by the swap: alpha_2(z2, z1) dzbar_1 + alpha_1(z2, z1) dzbar_2."""
    support = DomainBox(alpha.support.kind, alpha.support.center[::-1], alpha.support.extents)
    return FormField01(alpha.name, lambda z: alpha.coefficients(z[:, ::-1])[::-1], support)


# the swap only reorders the grid sums: the largest gaps measured were 3.2e-15
# relative (terms) and 4.1e-16 absolute (residual).  The quarter turn also moves
# the nodes by the rounding of their coordinates: 1.5e-15 and 5.6e-16
SYMMETRY_RTOL = 1e-12
SYMMETRY_ATOL = 1e-13


@pytest.mark.parametrize("weight", sorted(TRANSLATION_WEIGHTS))
@pytest.mark.parametrize("form", ["bump_const", "bump_zbar2"])
def test_bochner_residual_swap_invariant(form, weight):
    # criterion 2's n = 2 box, forms and node count: the swap maps the grid onto itself
    grid = make_grid(unit_ball(2, radius=1.3), 24)
    assert np.array_equal(grid.bounds[[2, 3, 0, 1]], grid.bounds)
    alpha = (bump_const_form(np.array([0.8, 0.6j]), radius=0.8) if form == "bump_const"
             else bump_zbar_form(2, radius=0.8))
    phi = TRANSLATION_WEIGHTS[weight](2)
    [base] = bochner_residual(alpha, [phi], grid)
    [swapped] = bochner_residual(swapped_form(alpha), [swapped_field(phi)], grid)
    for got, want in term_values(swapped, base):
        assert abs(got - want) <= SYMMETRY_RTOL * abs(want)
    assert abs(swapped.residual - base.residual) <= SYMMETRY_ATOL


def quarter_turn(n: int) -> np.ndarray:
    """The diagonal of the unitary map z1 -> i z1 of C^n, a quarter turn of (x1, y1)."""
    u = np.ones(n, dtype=complex)
    u[0] = 1j
    return u


def turned_field(phi: fields.ScalarField) -> fields.ScalarField:
    """z -> phi(u z) for the quarter turn u, with its gradient and Hessian pulled back alike."""
    u = quarter_turn(phi.n)
    return dataclasses.replace(
        phi, name=f"{phi.name}@turn", evaluate=lambda z: phi.evaluate(z * u),
        grad=lambda z: phi.grad(z * u) * u,
        hess=lambda z: phi.hess(z * u) * (u[:, None] * np.conj(u)),
    )


def turned_form(alpha: FormField01) -> FormField01:
    """The pull-back of alpha by the quarter turn u: sum_j conj(u_j) alpha_j(u z) dzbar_j."""
    u = quarter_turn(alpha.n)
    support = DomainBox(alpha.support.kind, alpha.support.center * np.conj(u),
                        alpha.support.extents)
    return FormField01(alpha.name,
                       lambda z: alpha.coefficients(z * u) * np.conj(u)[:, None], support)


@pytest.mark.parametrize("weight", sorted(TRANSLATION_WEIGHTS))
@pytest.mark.parametrize("form", ["bump_const", "bump_zbar2"])
@pytest.mark.parametrize("n, nodes, radius", [(1, 256, 0.9), (2, 24, 0.8)], ids=["n1", "n2"])
def test_bochner_residual_quarter_turn_invariant(n, nodes, radius, form, weight):
    # criterion 2's centered boxes, forms and node counts: the turn maps each box
    # onto itself, and its nodes onto nodes up to the rounding of their coordinates
    grid = make_grid(unit_ball(n, radius=1.3), nodes)
    assert np.array_equal(grid.bounds[[1, 0]], grid.bounds[[0, 1]])
    xi = np.array([1.0]) if n == 1 else np.array([0.8, 0.6j])
    alpha = (bump_const_form(xi, radius=radius) if form == "bump_const"
             else bump_zbar_form(n, radius=radius))
    phi = TRANSLATION_WEIGHTS[weight](n)
    [base] = bochner_residual(alpha, [phi], grid)
    [turned] = bochner_residual(turned_form(alpha), [turned_field(phi)], grid)
    for got, want in term_values(turned, base):
        assert abs(got - want) <= SYMMETRY_RTOL * abs(want)
    assert abs(turned.residual - base.residual) <= SYMMETRY_ATOL


@pytest.mark.parametrize("psi_center", [0.1j, 0.3 - 0.2j])
def test_hormander_ratio_quarter_turn_invariant(psi_center):
    # criterion 8's centered grid, witness form and weights, with psi_s moved off the
    # origin so that the turn moves it: z -> i z maps the nodes onto nodes up to the
    # rounding of their coordinates, the trapezoid weights onto themselves and the
    # polynomials onto polynomials.  The largest gap measured, over six centres of
    # psi_s, was 1.9e-14
    grid = make_grid(unit_ball(1, radius=2.0), 256)
    f = build_witness_form(Z0, np.array([1.0]), 0.5)
    weights = [(fields.neg_sq_norm(1), build_psi_s(np.array([psi_center]), 0.5, s))
               for s in s_schedule(S_MAX)]
    base = hormander_ratio(weights, f, 10, grid)
    turned = hormander_ratio([(turned_field(phi), turned_field(psi)) for phi, psi in weights],
                             turned_form(f), 10, grid)
    for got, want in zip(turned, base, strict=True):
        assert abs(got.ratio - want.ratio) <= SYMMETRY_RTOL * want.ratio


@pytest.mark.parametrize("steps", [(3, 0), (0, -5), (17, 23), (-40, 31)], ids=str)
def test_hormander_ratio_translation_invariant(steps):
    # criterion 8's grid, with the witness form, psi_s and phi moved by whole spacings
    # within it: the support block and the nodes where the weight lives move by whole
    # nodes.  The largest gaps measured were 3.3e-14 (ratios) and 3.0e-13 (residual)
    grid = make_grid(unit_ball(1, radius=2.0), 256)

    def solves(z0):
        f = build_witness_form(z0, np.array([1.0]), 0.5)
        phi = translated_field(fields.neg_sq_norm(1), z0)
        return hormander_ratio([(phi, build_psi_s(z0, 0.5, s)) for s in s_schedule(S_MAX)],
                               f, 10, grid)

    base = solves(Z0)
    moved = solves(np.array([complex(*steps) * grid.spacing[0]]))
    for got, want in zip(moved, base, strict=True):
        assert abs(got.ratio - want.ratio) <= 1e-12 * want.ratio
        assert abs(got.residual - want.residual) <= 1e-12 * want.residual


# ---------------------------------------------------------------------------
# the sign functional E under the exact grid symmetries
# ---------------------------------------------------------------------------
# E of (phi, omega, form, psi_s) and of their pull-backs: the largest gaps measured
# were 2.0e-16 relative (swap), 4.5e-16 (quarter turn), 0 (3 spacings) and 4.7e-13
# (10^3 spacings, where the moved nodes carry the rounding of coordinates near 110)


def skewed_omega(n: int) -> fields.HermitianField:
    """g(z) = 0.7 conj(z) z^T + diag(0.3, 0.5, ...): Hermitian, and moved by the swap,
    the quarter turn and every translation."""
    d = np.diag(0.3 + 0.2 * np.arange(n)).astype(complex)
    return fields.HermitianField(n, lambda z: 0.7 * np.conj(z)[:, :, None] * z[:, None, :] + d)


def translated_omega(omega: fields.HermitianField, a) -> fields.HermitianField:
    return fields.HermitianField(omega.n, lambda z: omega.evaluate(z - a))


def swapped_omega(omega: fields.HermitianField) -> fields.HermitianField:
    return fields.HermitianField(omega.n, lambda z: omega.evaluate(z[:, ::-1])[:, ::-1, ::-1])


def turned_omega(omega: fields.HermitianField) -> fields.HermitianField:
    u = quarter_turn(omega.n)
    return fields.HermitianField(
        omega.n, lambda z: omega.evaluate(z * u) * (u[:, None] * np.conj(u)))


E_WEIGHTS = {"neg_sq_norm": fields.neg_sq_norm, "log1p_sq": fields.log1p_sq,
             "neg_gauss": fields.neg_gauss}
E_SETUPS = pytest.mark.parametrize("n, nodes, radius", [(1, 256, 0.9), (2, 24, 0.8)],
                                   ids=["n1", "n2"])


def functional_E(form, phi, psi, omega, grid):
    return estimate_functional_E(support_values(form, grid)[::2], phi, psi, omega, grid).value


def e_case(n, radius, form, weight):
    """A form of criterion 2, a weight, the skewed omega and psi_s (s = 10) centred at 0."""
    xi = np.array([1.0]) if n == 1 else np.array([0.8, 0.6j])
    alpha = (bump_const_form(xi, radius=radius) if form == "bump_const"
             else bump_zbar_form(n, radius=radius))
    return alpha, E_WEIGHTS[weight](n), build_psi_s(np.zeros(n), radius, 10.0), skewed_omega(n)


@pytest.mark.parametrize("steps", [3, 1000])
@pytest.mark.parametrize("weight", sorted(E_WEIGHTS))
@pytest.mark.parametrize("form", ["bump_const", "bump_zbar2"])
@E_SETUPS
def test_functional_E_translation_invariant(n, nodes, radius, form, weight, steps):
    # the grid box, the form, the weights and omega moved together by whole spacings
    grid = make_grid(unit_ball(n, radius=1.3), nodes)
    h = grid.spacing[0]
    a = np.full(n, steps * h * (1.0 + 1.0j))
    moved_grid = make_grid(unit_ball(n, radius=1.3, center=a), nodes)
    assert np.all(np.abs(moved_grid.spacing - grid.spacing) <= 1e-12 * h)
    alpha, phi, psi, omega = e_case(n, radius, form, weight)
    want = functional_E(alpha, phi, psi, omega, grid)
    got = functional_E(translated_form(alpha, a), translated_field(phi, a),
                       translated_field(psi, a), translated_omega(omega, a), moved_grid)
    assert abs(got - want) <= SYMMETRY_RTOL * abs(want)


@pytest.mark.parametrize("weight", sorted(E_WEIGHTS) + ["saddle"])
@pytest.mark.parametrize("form", ["bump_const", "bump_zbar2"])
def test_functional_E_swap_invariant(form, weight):
    # criterion 2's n = 2 box: the swap maps the grid onto itself
    grid = make_grid(unit_ball(2, radius=1.3), 24)
    alpha, phi, psi, omega = e_case(2, 0.8, form, "neg_gauss")
    phi = fields.saddle(2.0) if weight == "saddle" else E_WEIGHTS[weight](2)
    want = functional_E(alpha, phi, psi, omega, grid)
    got = functional_E(swapped_form(alpha), swapped_field(phi), swapped_field(psi),
                       swapped_omega(omega), grid)
    assert abs(got - want) <= SYMMETRY_RTOL * abs(want)


@pytest.mark.parametrize("weight", sorted(E_WEIGHTS))
@pytest.mark.parametrize("form", ["bump_const", "bump_zbar2"])
@E_SETUPS
def test_functional_E_quarter_turn_invariant(n, nodes, radius, form, weight):
    # centered boxes: the turn maps each onto itself, and its nodes onto nodes up to
    # the rounding of their coordinates
    grid = make_grid(unit_ball(n, radius=1.3), nodes)
    alpha, phi, psi, omega = e_case(n, radius, form, weight)
    want = functional_E(alpha, phi, psi, omega, grid)
    got = functional_E(turned_form(alpha), turned_field(phi), turned_field(psi),
                       turned_omega(omega), grid)
    assert abs(got - want) <= SYMMETRY_RTOL * abs(want)
