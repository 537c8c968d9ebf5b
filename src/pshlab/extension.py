"""Evaluators for the optimal and multiple-coarse L^p-extension inequalities.

For a weight phi and a holomorphic cylinder z0 + P whose center z0 is off the
pole set, the optimal inequality asks for a holomorphic f with f(z0) = 1 and

    (1/mu(P)) int_{z0+P} |f|^p e^{-phi} <= e^{-phi(z0)};

the Jensen/Fubini chain turns any such witness into the sub-mean-value
inequality for phi, and the coarse variant does the same in the m-th power
limit.  For p = 2 a best-constant witness over a polynomial subspace is 1 minus
its weighted projection onto the non-constant monomials, the projection that the
n = 1 dbar solve also takes.  z0 is always the cylinder's center, and a
candidate f is one evaluator from (m, n) points to (m,) values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from . import bochner
from .errors import ConsistencyError, DegenerateWeightError, SingularGramError
from .fields import Scaled, ScalarField, node_weights, weighted_sums
from .geometry import HolomorphicCylinder, QuadratureRule, as_point, sample_cylinder, weighted_total
from .meanvalue import clipped_mean

VANISHING_FRACTION = 1e-3  # of quadrature mass; more means a degenerate candidate

Candidate = Callable[[np.ndarray], np.ndarray]  # holomorphic f: (m, n) points -> (m,) values


def exp_linear(a, z0) -> Candidate:
    """f(z) = e^{<a, z> + b} with b chosen so that f(z0) = 1."""
    a = as_point(a)
    b = -complex(as_point(z0) @ a)
    return lambda z: np.exp(z @ a + b)


def constant_one(z0) -> Candidate:
    z0 = as_point(z0)
    return polynomial({(0,) * z0.size: 1.0}, z0)


def polynomial(coeffs: dict, z0) -> Candidate:
    """Polynomial in (z - z0) from {multi-index: coefficient}."""
    z0 = as_point(z0)
    exponents = tuple(sorted(coeffs.keys()))
    arr = np.array([coeffs[e] for e in exponents], dtype=complex)
    return lambda z: _monomial_values(z - z0, exponents) @ arr


@dataclass(frozen=True)
class ExtensionReport:
    """Margin rhs - lhs and Jensen residuals; lhs and rhs = e^{-phi(z0)} are Scaled."""

    lhs: Scaled
    rhs: Scaled
    jensen_residual: float
    log_mean_residual: float
    conclusion_margin: float

    margin = property(lambda self: self.rhs.minus(self.lhs))


def _cylinder_weight_values(phi, cyl, rule):
    sample = sample_cylinder(cyl, rule)
    weight_vals = phi(sample.nodes)
    if weighted_total(~np.isfinite(weight_vals), sample.weights) > VANISHING_FRACTION * cyl.volume:
        raise DegenerateWeightError("degenerate weight: not finite on a positive-measure set")
    return sample, weight_vals


def _candidate_values(phi, cyl, candidate, rule):
    """The rule's sample of cyl with phi and f at its nodes; ValueError unless f = 1
    at the center z0, the one place where a candidate's normalization is checked."""
    val = candidate(cyl.center[None, :])[0]
    if abs(val - 1.0) > 1e-12:
        raise ValueError(f"candidate violates f(z0) = 1 by {abs(val - 1.0):.3e}")
    sample, weight_vals = _cylinder_weight_values(phi, cyl, rule)
    return sample, weight_vals, candidate(sample.nodes)


def optimal_extension_margin(
    phi: ScalarField, cyl: HolomorphicCylinder, candidate: Candidate, p: float, rule: QuadratureRule
) -> ExtensionReport:
    """margin = e^{-phi(z0)} - (1/mu) int |f|^p e^{-phi}; >= 0 means f witnesses.

    The Jensen chain from extension to sub-mean-value: residual_1 = mean(-x) +
    log mean(e^x) >= 0 for x = log(|f|^p e^{-phi}); residual_2 = mean(p log|f|) >= 0
    when log|f| is sub-mean-value; conclusion margin = mean(phi) - phi(z0), at least
    -(residuals + extension margin)."""
    center_val = phi.value_at(cyl.center)
    if not np.isfinite(center_val):
        raise ValueError("center lies on the pole set")
    sample, weight_vals, fvals = _candidate_values(phi, cyl, candidate, rule)
    mu = cyl.volume
    fabs = np.abs(fvals)
    if weighted_total(fabs == 0.0, sample.weights) > VANISHING_FRACTION * mu:
        raise DegenerateWeightError("candidate vanishes on a positive-measure node set")
    quad = sample.weights / mu
    [lhs] = weighted_sums(-weight_vals, quad, [fabs ** p])
    with np.errstate(divide="ignore"):
        log_f = np.log(fabs)
    x_vals = p * log_f - weight_vals  # log(|f|^p e^{-phi})
    mean_x = clipped_mean(x_vals, sample.weights, mu)
    [mean_ex] = weighted_sums(x_vals, quad, [1.0])
    # the shift and the mean cancel first: a residual near 0 keeps its bits at any shift
    residual_1 = mean_ex.shift - mean_x + math.log(mean_ex.total)
    residual_2 = clipped_mean(p * log_f, sample.weights, mu)
    mean_phi = clipped_mean(weight_vals, sample.weights, mu)
    conclusion_margin = mean_phi - center_val
    return ExtensionReport(lhs, Scaled(1.0, -center_val), residual_1, residual_2,
                           conclusion_margin)


def jensen_chain_check(
    phi: ScalarField, cyl: HolomorphicCylinder, candidate: Candidate, p: float, rule: QuadratureRule
):
    """(jensen_residual, log_mean_residual, conclusion_margin) of the candidate's
    optimal_extension_margin report: the Jensen chain from extension to sub-mean-value."""
    rep = optimal_extension_margin(phi, cyl, candidate, p, rule)
    return rep.jensen_residual, rep.log_mean_residual, rep.conclusion_margin


def coarse_extension_bound(
    phi: ScalarField,
    cyl: HolomorphicCylinder,
    candidate: Candidate,
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
    sample, weight_vals, fvals = _candidate_values(phi, cyl, candidate, rule)
    mu = cyl.volume
    with np.errstate(divide="ignore"):
        expo = p * np.log(np.abs(fvals)) - m * weight_vals
    [integral] = weighted_sums(expo, sample.weights / mu, [1.0])
    b_m = log_c_m / m - math.log(mu) / m - integral.log_abs / m
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


def solve_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solution of gram x = rhs, or SingularGramError when the Gram system is
    singular or its solution is not finite (a basis of too high a degree)."""
    try:
        sol = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularGramError(f"singular Gram matrix: {exc}; lower the degree") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularGramError("Gram solve is not finite; lower the degree")
    return sol


def weighted_bergman_projection(u_values: np.ndarray, w: np.ndarray, rows: Callable):
    """(u - h, coefficients of h, sum w |u - h|^2) for h the best L^2(w) approximation
    of u by K basis functions, from node weights w (quadrature weights times
    e^{-eta - shift}, see node_weights); rows(nodes) gives the (K, b) values of the basis
    at a slice of b of the m nodes.  u - h is orthogonal to every basis function (Gram
    normal equations).  Two passes over blocks of bochner.BAND_BLOCK nodes, so that no
    more than one block of basis values is held at once: the first accumulates the Gram
    matrix and the right-hand side, the second, after the solve, the residual u - h.
    SingularGramError when the Gram system overflows (a basis of too high a degree for
    the spread of the weighted nodes), is singular, or has no finite solution."""
    u = np.asarray(u_values, dtype=complex)
    blocks = [slice(start, start + bochner.BAND_BLOCK)
              for start in range(0, u.size, bochner.BAND_BLOCK)]
    gram = rhs = 0.0
    for block in blocks:
        v = rows(block)
        with np.errstate(over="ignore", invalid="ignore"):  # read by the check below
            vc = v.conj()
            rhs = rhs + vc @ (w[block] * u[block])
            vc *= w[block]
            gram = gram + vc @ v.T
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        raise SingularGramError("the Gram matrix overflows; lower the degree or refine the grid")
    coeffs = solve_gram(gram, rhs)
    residual = np.empty_like(u)
    for block in blocks:
        residual[block] = u[block] - coeffs @ rows(block)
    return residual, coeffs, float(weighted_total((residual.conj() * residual).real, w))


def best_extension_constant(phi: ScalarField, cyl: HolomorphicCylinder, degree: int,
                            rule: QuadratureRule):
    """Minimize (1/mu) int |f|^2 e^{-phi} over degree <= N polys with f(z0) = 1.

    The polynomials are taken in the cylinder's own coordinates t = A^H (z - z0)
    / (r, s, ..., s), in which it is P_{1,1}: their monomials are at most 1 in
    modulus on it, whatever its frame and radii, and t = 0 at z0 makes the
    constraint a single coordinate.  The minimizer is f* = 1 - P(1), for P the
    weighted projection onto the non-constant monomials, and its value, a Scaled,
    is the weighted sum of |f*|^2.  Comparing the value against e^{-phi(z0)} tests
    the optimal L^2-extension inequality within the polynomial class.
    """
    sample, weight_vals = _cylinder_weight_values(phi, cyl, rule)
    exponents = monomial_exponents(phi.n, degree)
    radii = np.array([cyl.r] + [cyl.s] * (cyl.n - 1))

    def monomials(z):
        return _monomial_values((z - cyl.center) @ cyl.frame.conj() / radii, exponents)

    w, shift = node_weights(-weight_vals, sample.weights)
    w /= cyl.volume
    _, coeffs, value = weighted_bergman_projection(
        np.ones(w.size), w, lambda nodes: monomials(sample.nodes[nodes])[:, 1:].T)
    v = np.concatenate([[1.0 + 0.0j], -coeffs])
    return lambda z: monomials(z) @ v, Scaled(value, shift)
