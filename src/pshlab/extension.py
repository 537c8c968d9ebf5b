"""Evaluators for the optimal and multiple-coarse L^p-extension inequalities.

For a weight phi, a center z0 off the pole set, and a holomorphic cylinder P,
the optimal inequality asks for a holomorphic f with f(z0) = 1 and

    (1/mu(P)) int_{z0+P} |f|^p e^{-phi} <= e^{-phi(z0)};

the Jensen/Fubini chain turns any such witness into the sub-mean-value
inequality for phi, and the coarse variant does the same in the m-th power
limit.  For p = 2 a best-constant witness over a polynomial subspace comes
from a weighted Gram system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .errors import ConsistencyError, DegenerateWeightError, SingularGramError
from .fields import ScalarField, unshift, weight_exp
from .geometry import HolomorphicCylinder, QuadratureRule, as_point, as_points, sample_cylinder
from .meanvalue import clipped_mean

VANISHING_FRACTION = 1e-3  # of quadrature mass; more means a degenerate candidate


@dataclass(frozen=True)
class HolomorphicCandidate:
    """A holomorphic extension candidate normalized to f(z0) = 1.

    kind "exp": f(z) = exp(<a, z> + b) with b chosen so f(z0) = 1;
    kind "poly": a polynomial in (z - z0) with unit constant coefficient,
    coefficients keyed by exponent multi-indices.
    """

    kind: str
    n: int
    z0: np.ndarray
    a: Optional[np.ndarray] = None
    b: complex = 0.0
    exponents: Optional[tuple] = None
    coefficients: Optional[np.ndarray] = None

    def evaluate(self, pts) -> np.ndarray:
        z = as_points(pts, self.n)
        if self.kind == "exp":
            return np.exp(z @ self.a + self.b)
        return _monomial_values(z - self.z0, self.exponents) @ self.coefficients

    def check_normalization(self, tol: float = 1e-12) -> None:
        val = self.evaluate(self.z0[None, :])[0]
        if abs(val - 1.0) > tol:
            raise ValueError(f"candidate violates f(z0) = 1 by {abs(val - 1.0):.3e}")


def exp_linear(a, z0) -> HolomorphicCandidate:
    """f(z) = e^{<a, z> + b} normalized to 1 at z0."""
    a = as_point(a)
    z0 = as_point(z0)
    b = -complex(z0 @ a)
    cand = HolomorphicCandidate("exp", z0.size, z0, a=a, b=b)
    cand.check_normalization()
    return cand


def constant_one(z0) -> HolomorphicCandidate:
    z0 = as_point(z0)
    return polynomial({(0,) * z0.size: 1.0}, z0)


def polynomial(coeffs: dict, z0) -> HolomorphicCandidate:
    """Polynomial in (z - z0) from {multi-index: coefficient}; constant term 1."""
    z0 = as_point(z0)
    n = z0.size
    exponents = tuple(sorted(coeffs.keys()))
    arr = np.array([coeffs[e] for e in exponents], dtype=complex)
    cand = HolomorphicCandidate(
        "poly", n, z0, exponents=exponents, coefficients=arr
    )
    cand.check_normalization()
    return cand


@dataclass(frozen=True)
class ExtensionReport:
    """Margin rhs - lhs and Jensen residuals; lhs kept times e^{-log_scale}, rhs as its log."""

    z0: np.ndarray
    cylinder: HolomorphicCylinder
    p: float
    candidate: str
    scaled_lhs: float
    log_scale: float
    log_rhs: float  # -phi(z0)
    jensen_residual: float
    log_mean_residual: float
    conclusion_margin: float

    lhs = property(lambda self: unshift(self.scaled_lhs, self.log_scale))
    rhs = property(lambda self: unshift(1.0, self.log_rhs))
    margin = property(lambda self: self.rhs - self.lhs)


def _cylinder_weight_values(phi, cyl, rule):
    sample = sample_cylinder(cyl, rule)
    weight_vals = phi(sample.nodes)
    if np.dot(~np.isfinite(weight_vals), sample.weights) > VANISHING_FRACTION * cyl.volume:
        raise DegenerateWeightError("degenerate weight: not finite on a positive-measure set")
    return sample, weight_vals


def optimal_extension_margin(
    phi: ScalarField,
    z0,
    cyl: HolomorphicCylinder,
    candidate: HolomorphicCandidate,
    p: float,
    rule: QuadratureRule,
) -> ExtensionReport:
    """margin = e^{-phi(z0)} - (1/mu) int |f|^p e^{-phi}; >= 0 means f witnesses."""
    z0 = as_point(z0)
    center_val = phi.value_at(z0)
    if not np.isfinite(center_val):
        raise ValueError("center lies on the pole set")
    candidate.check_normalization()
    sample, weight_vals = _cylinder_weight_values(phi, cyl, rule)
    fvals = candidate.evaluate(sample.nodes)
    weight, shift = weight_exp(-weight_vals)
    integrand = np.abs(fvals) ** p * weight
    lhs = float(np.dot(integrand, sample.weights) / cyl.volume)
    res1, res2, concl = _jensen_residuals(sample, cyl.volume, weight_vals, fvals, p, center_val)
    return ExtensionReport(
        z0, cyl, p, candidate.kind, lhs, shift, -center_val, res1, res2, concl
    )


def jensen_chain_check(
    phi: ScalarField,
    z0,
    cyl: HolomorphicCylinder,
    candidate: HolomorphicCandidate,
    p: float,
    rule: QuadratureRule,
):
    """Residuals of the two inequality steps linking extension to sub-mean-value.

    residual_1 = mean(-log(|f|^p e^{-phi})) + log mean(|f|^p e^{-phi}) >= 0
    (concavity of log); residual_2 = mean(p log|f|) >= 0 when log|f| is
    sub-mean-value (holomorphic f with f(z0) = 1); conclusion margin is
    mean(phi) - phi(z0), bounded below by -(residuals + extension margin).
    """
    z0 = as_point(z0)
    candidate.check_normalization()
    sample, weight_vals = _cylinder_weight_values(phi, cyl, rule)
    fvals = candidate.evaluate(sample.nodes)
    return _jensen_residuals(sample, cyl.volume, weight_vals, fvals, p, phi.value_at(z0))


def _jensen_residuals(sample, mu, weight_vals, fvals, p, center_val):
    """The residuals of jensen_chain_check from phi and f at the rule's nodes."""
    fabs = np.abs(fvals)
    zero_mass = float(np.dot(fabs == 0.0, sample.weights))
    if zero_mass > VANISHING_FRACTION * mu:
        raise DegenerateWeightError("candidate vanishes on a positive-measure node set")
    with np.errstate(divide="ignore"):
        log_f = np.log(fabs)
    x_vals = p * log_f - weight_vals  # log(|f|^p e^{-phi})
    mean_x = clipped_mean(x_vals, sample.weights, mu)
    ex, shift = weight_exp(x_vals)
    residual_1 = shift - mean_x + math.log(float(np.dot(ex, sample.weights) / mu))
    residual_2 = clipped_mean(p * log_f, sample.weights, mu)
    mean_phi = clipped_mean(weight_vals, sample.weights, mu)
    conclusion_margin = mean_phi - center_val
    return residual_1, residual_2, conclusion_margin


def coarse_extension_bound(
    phi: ScalarField,
    z0,
    cyl: HolomorphicCylinder,
    candidate: HolomorphicCandidate,
    log_c_m: float,
    m: int,
    p: float,
    rule: QuadratureRule,
):
    """b_m and its Jensen relaxation b~_m for the m-th power weight, given log(C_m).

    b_m = log(C_m)/m - log(mu)/m - (1/m) log((1/mu) int |f_m|^p e^{-m phi});
    b~_m = log(C_m)/m - log(mu)/m + mean(phi).  Always b_m <= b~_m + 1e-9, and
    b~_m -> mean(phi) whenever log(C_m)/m -> 0.
    """
    z0 = as_point(z0)
    candidate.check_normalization()
    sample, weight_vals = _cylinder_weight_values(phi, cyl, rule)
    mu = cyl.volume
    fvals = candidate.evaluate(sample.nodes)
    with np.errstate(divide="ignore"):
        expo = p * np.log(np.abs(fvals)) - m * weight_vals
    weight, shift = weight_exp(expo)
    log_integral = shift + math.log(float(np.dot(weight, sample.weights) / mu))
    b_m = log_c_m / m - math.log(mu) / m - log_integral / m
    mean_phi = clipped_mean(weight_vals, sample.weights, mu)
    b_tilde = log_c_m / m - math.log(mu) / m + mean_phi
    if not b_m <= b_tilde + 1e-9:
        raise ConsistencyError(
            f"Jensen relaxation violated: b_m = {b_m!r} > b~_m = {b_tilde!r}"
        )
    return b_m, b_tilde


# ---------------------------------------------------------------------------
# best-constant search for p = 2 over a polynomial subspace
# ---------------------------------------------------------------------------


def monomial_exponents(n: int, degree: int) -> tuple:
    """Multi-indices of total degree <= degree, constant term first."""
    out = [e for e in product(range(degree + 1), repeat=n) if sum(e) <= degree]
    out.sort(key=lambda e: (sum(e), e))
    return tuple(out)


def _monomial_values(d: np.ndarray, exponents) -> np.ndarray:
    cols = []
    for expo in exponents:
        term = np.ones(d.shape[0], dtype=complex)
        for j, e in enumerate(expo):
            if e:
                term = term * d[:, j] ** e
        cols.append(term)
    return np.stack(cols, axis=1)  # (m, K)


def _solve_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        sol = np.linalg.solve(gram, rhs)
        if np.all(np.isfinite(sol)):
            return sol
    except np.linalg.LinAlgError:
        pass
    ridge = 1e-12 * float(np.real(np.trace(gram))) / max(gram.shape[0], 1)
    try:
        sol = np.linalg.solve(gram + ridge * np.eye(gram.shape[0]), rhs)
        if np.all(np.isfinite(sol)):
            return sol
    except np.linalg.LinAlgError:
        pass
    raise SingularGramError("increase regularization or lower degree")


def best_extension_constant(
    phi: ScalarField,
    z0,
    cyl: HolomorphicCylinder,
    degree: int,
    rule: QuadratureRule,
):
    """Minimize (1/mu) int |f|^2 e^{-phi} over degree <= N polys with f(z0) = 1.

    The Gram matrix of the monomials centered at z0 makes the constraint a
    single coordinate; the minimizer and its value come from the constrained
    normal equations.  Comparing the value against e^{-phi(z0)} tests the
    optimal L^2-extension inequality within the polynomial class.
    """
    z0 = as_point(z0)
    sample, weight_vals = _cylinder_weight_values(phi, cyl, rule)
    mu = cyl.volume
    exponents = monomial_exponents(phi.n, degree)
    mono = _monomial_values(sample.nodes - z0, exponents)
    weight, shift = weight_exp(-weight_vals)
    wphi = sample.weights * weight / mu
    # gram carries the factor e^{-shift}, which leaves the minimizer unchanged
    gram = (mono.conj().T * wphi) @ mono  # gram[b, a] = int m_a conj(m_b) dW
    # minimize v^H G v... with v_0 = 1: stationarity sum_a gram[b, a] v_a = 0, b != 0
    sub = gram[1:, 1:]
    rhs = -gram[1:, 0]
    tail = _solve_gram(sub, rhs)
    v = np.concatenate([[1.0 + 0.0j], tail])
    value = unshift(float(np.real(np.conj(v) @ gram @ v)), shift)
    coeffs = {expo: v[i] for i, expo in enumerate(exponents)}
    f_star = polynomial(coeffs, z0)
    return f_star, value
