"""A pole is where a weight is -inf.

The corpus weights with a pole (log_abs, max_log, psi_delta at delta = 0) are
-inf there and finite off it, and every pole check is a finiteness test that
raises where a pole check raised: PoleInStencilError in a finite-difference
stencil, a declared Hessian, a region scan and the support of a form (or, for a weight without a
gradient, the stencil band that its stencil gradient reads), and ValueError for a
cylinder center on the pole.
"""

import warnings

import numpy as np
import pytest

from pshlab import fields
from pshlab.bochner import bochner_residual, bump_const_form, make_grid
from pshlab.errors import PoleInStencilError
from pshlab.extension import constant_one, jensen_chain_check
from pshlab.fields import (
    DEFAULT_FD_STEP, ScalarField, check_lower_bound, fd_levi_form, levi_form, zero_omega,
)
from pshlab.geometry import HolomorphicCylinder, QuadratureRule, unit_ball
from pshlab.meanvalue import classify_psh, submean_test
from pshlab.witness import build_psi_delta

A1 = np.array([0.25 - 0.5j])
A2 = np.array([0.1j, -0.3 + 0.2j])

# name -> (weight, its pole, a point off the pole where a coordinate is 0)
POLES = {
    "log_abs-1": (fields.log_abs(A1, 1), A1, np.array([0.0j])),
    "log_abs-2": (fields.log_abs(A2, 2), A2, np.array([0.1j, 0.0])),
    "max_log": (fields.max_log(), np.zeros(2, dtype=complex), np.array([0.0, 0.3j])),
    "psi_delta:0": (build_psi_delta(A2, 0.0, 2), A2, np.array([0.0, 0.2j])),
}
RULE = QuadratureRule("tensor-grid", 1024, 0)


@pytest.mark.parametrize("name", sorted(POLES))
def test_weight_is_minus_inf_exactly_at_its_pole(name):
    phi, pole, off = POLES[name]
    assert phi.value_at(pole) == -np.inf
    rng = np.random.default_rng(7)
    near = pole + 1e-3 * (rng.standard_normal((16, phi.n)) + 1j * rng.standard_normal((16, phi.n)))
    assert np.all(np.isfinite(phi(np.vstack([near, off[None, :]]))))


@pytest.mark.parametrize("name", ["log_abs-1", "log_abs-2", "max_log"])
def test_stencil_on_the_pole_raises(name):
    phi, pole, _ = POLES[name]
    with pytest.raises(PoleInStencilError, match="^pole in stencil$"):
        fd_levi_form(phi, pole, DEFAULT_FD_STEP)


@pytest.mark.parametrize("name", ["log_abs-1", "log_abs-2"])
def test_declared_hessian_on_the_pole_raises(name):
    # the declared Hessian divides by |z - a|^2: no RuntimeWarning, and no NaN returned
    phi, pole, _ = POLES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleInStencilError, match="^pole in the declared Hessian"):
            levi_form(phi, np.vstack([pole + 0.5, pole]))


def test_region_grid_on_the_pole_raises():
    # the resolution-9 grid of the unit ball has the origin as a node
    with pytest.raises(PoleInStencilError, match="^pole in region$"):
        check_lower_bound(fields.max_log(), zero_omega(2), unit_ball(2), 9, fields.LEVI_TOL)


@pytest.mark.parametrize("make", [
    lambda pole: fields.log_abs(pole, 1),  # grad phi is not finite at the pole
    lambda pole: build_psi_delta(pole, 0.0, 1),  # no grad: phi itself is -inf there
], ids=["log_abs", "psi_delta:0"])
def test_pole_in_the_support_of_the_form_raises(make):
    grid = make_grid(unit_ball(1, radius=1.3), 64)
    pole = grid.points[np.argmin(np.abs(grid.points[:, 0] - (0.2 + 0.1j)))]
    with pytest.raises(PoleInStencilError, match="^pole in the (support|stencil band) of the form$"):
        bochner_residual(bump_const_form([1], radius=0.9), [make(pole)], grid)


@pytest.mark.parametrize("name", sorted(POLES))
def test_center_on_the_pole_raises(name):
    phi, pole, _ = POLES[name]
    cyl = HolomorphicCylinder(pole, np.eye(phi.n, dtype=complex), 0.5, 0.5)
    with pytest.raises(ValueError, match="^submean_test needs a center off the pole set$"):
        submean_test(phi, cyl, RULE)
    with pytest.raises(ValueError, match="^center lies on the pole set$"):
        jensen_chain_check(phi, cyl, constant_one(pole), 2.0, RULE)


def test_scan_draws_no_center_where_the_weight_is_minus_inf():
    everywhere = ScalarField("-inf", 1, lambda z: np.full(z.shape[0], -np.inf))
    with pytest.raises(ValueError, match="^could not sample a center off the pole set$"):
        classify_psh(everywhere, unit_ball(1), 1, 1, 0, budget=64)


def test_pole_in_the_stencil_band_of_a_weight_without_grad_raises():
    # a node just outside the form's support, read by the stencils of its nodes
    grid = make_grid(unit_ball(1, radius=1.3), 64)
    z = grid.points[:, 0]
    pole = grid.points[np.argmin(np.where(np.abs(z) > 0.9, np.abs(z - 0.92), np.inf))]
    with pytest.raises(PoleInStencilError, match="^pole in the stencil band of the form$"):
        bochner_residual(bump_const_form([1], radius=0.9), [build_psi_delta(pole, 0.0, 1)], grid)
