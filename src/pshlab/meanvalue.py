"""Cylinder sub-mean-value tests for plurisubharmonicity.

A function that is psh satisfies phi(z0) <= (1/mu(P)) int_{z0+P} phi for every
holomorphic cylinder P; a single cylinder with a negative margin is a concrete
violation witness.  Thin cylinders degenerate to disc means on complex lines.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CylinderOutsideDomainError
from .fields import ScalarField
from .geometry import (
    DEFAULT_BUDGET,
    DomainBox,
    HolomorphicCylinder,
    QuadratureRule,
    as_point,
    random_unitary,
    sample_cylinder,
    unitary_from_first_column,
)

# floors -M for upper semi-continuous integrands with value -inf; the mean is
# taken once the two clipped means agree
CLIP_FLOORS = (2.0**19, 2.0**20)
CLIP_CONVERGENCE = 1e-8
DEFAULT_MARGIN_TOL = 1e-6
# a confirmed violation must exceed this multiple of the quadrature-error
# estimate; guards against kink-induced noise on merely continuous fields
NOISE_FACTOR = 8.0


def thread_count() -> int:
    try:
        return max(1, int(os.environ.get("PSHLAB_THREADS", "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class MeanValueReport:
    center: np.ndarray
    cylinder: HolomorphicCylinder
    mean: float
    margin: float
    quad_error: float

    @property
    def violates(self) -> bool:
        return self.margin < 0.0


def clipped_mean(values: np.ndarray, weights: np.ndarray, measure: float) -> float:
    """Mean of a usc integrand: clip at floors -M and take the stable limit.

    Integrates max(phi, -M) for M = 2^19 and 2^20 and returns the latter if
    the two clipped means agree to CLIP_CONVERGENCE, else -inf (the clipped
    means diverge).
    """
    if np.all(np.isfinite(values)):
        return float(np.dot(values, weights) / measure)
    prev, last = (
        float(np.dot(np.maximum(values, -m), weights) / measure) for m in CLIP_FLOORS
    )
    if abs(last - prev) < CLIP_CONVERGENCE:
        return last
    return float("-inf")


def _check_inside_domain(phi: ScalarField, cyl: HolomorphicCylinder) -> None:
    if phi.domain is None:
        return
    # conservative: the bounding ball of the cylinder must fit in the domain
    if phi.domain.inradius_from(cyl.center) < cyl.bounding_radius:
        raise CylinderOutsideDomainError("cylinder outside domain")


def cylinder_mean(
    phi: ScalarField, cyl: HolomorphicCylinder, rule: QuadratureRule
) -> float:
    """Quadrature approximation of (1/mu(P)) int_{z0+P} phi; may return -inf."""
    mean, _ = cylinder_mean_with_error(phi, cyl, rule)
    return mean


def cylinder_mean_with_error(
    phi: ScalarField, cyl: HolomorphicCylinder, rule: QuadratureRule
):
    """Cylinder mean plus an error estimate from an embedded coarser rule."""
    _check_inside_domain(phi, cyl)
    mu = cyl.volume
    sample = sample_cylinder(cyl, rule)
    mean = clipped_mean(phi(sample.nodes), sample.weights, mu)
    coarse_budget = max(16, rule.budget // 4)
    coarse = sample_cylinder(cyl, rule.with_budget(coarse_budget))
    mean_coarse = clipped_mean(phi(coarse.nodes), coarse.weights, mu)
    if np.isfinite(mean) and np.isfinite(mean_coarse):
        err = abs(mean - mean_coarse)
    else:
        err = float("inf")
    return mean, err


def submean_test(
    phi: ScalarField,
    cyl: HolomorphicCylinder,
    rule: QuadratureRule,
    tol: float = DEFAULT_MARGIN_TOL,
) -> MeanValueReport:
    """Margin = mean - phi(z0); margin < -tol is a violation witness."""
    center_val = phi.value_at(cyl.center)
    if not np.isfinite(center_val):
        raise ValueError("submean_test needs a center off the pole set")
    mean, err = cylinder_mean_with_error(phi, cyl, rule)
    margin = mean - center_val
    return MeanValueReport(cyl.center, cyl, mean, margin, err)


@dataclass(frozen=True)
class PshScanResult:
    verdict: str  # "no-violation-found" | "violated"
    violations: tuple
    cylinders_checked: int

    @property
    def violated(self) -> bool:
        return self.verdict == "violated"


def classify_psh(
    phi: ScalarField,
    region: DomainBox,
    centers: int,
    cylinders_per_center: int,
    seed: int,
    tol: float = DEFAULT_MARGIN_TOL,
    budget: Optional[int] = None,
    rule_kind: str = "tensor-grid",
    radius_range: tuple = (0.1, 0.5),
    max_violations: Optional[int] = None,
) -> PshScanResult:
    """Randomized sub-mean-value scan over a region, deterministic under seed.

    Every candidate violation (margin < -tol) is re-checked at 4x node budget
    and reported only if the margin stays below -tol/2 and clears the
    quadrature noise floor.  The noise floor combines the embedded coarse-rule
    estimate with a cross-rule comparison (tensor versus quasi-random), whose
    errors are independent, so kink-induced bias on merely continuous fields
    cannot masquerade as a violation.  Cylinder centers are drawn uniformly in
    the region, never on the pole set; radii come from radius_range scaled by
    the region size.  max_violations stops the scan early (in job order) once
    that many confirmed witnesses exist.
    """
    if centers < 1 or cylinders_per_center < 1:
        raise ValueError("empty scan budget")
    n = phi.n
    if budget is None:
        budget = DEFAULT_BUDGET.get(n, 4096)
    scale = float(np.min(region.extents))
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    jobs = []
    for _ in range(centers):
        center = None
        for _ in range(256):
            cand = region.sample_uniform(rng, 1)[0]
            if np.isfinite(phi.value_at(cand)) and not phi.is_pole(cand[None, :])[0]:
                center = cand
                break
        if center is None:
            raise ValueError("could not sample a center off the pole set")
        for _ in range(cylinders_per_center):
            frame_seed = int(rng.integers(0, 2**63 - 1))
            r = float(rng.uniform(*radius_range)) * scale
            s = float(rng.uniform(*radius_range)) * scale
            jobs.append((center, frame_seed, r, s))

    rule = QuadratureRule(rule_kind, budget, seed)
    recheck = rule.with_budget(4 * budget)
    cross_rule = QuadratureRule("quasi-random", 4 * budget, seed + 1)

    def run_job(job):
        center, frame_seed, r, s = job
        frame = random_unitary(frame_seed, n) if n > 1 else np.eye(1, dtype=complex)
        cyl = HolomorphicCylinder(center, frame, r, s)
        report = submean_test(phi, cyl, rule, tol)
        if report.margin < -tol:
            confirm = submean_test(phi, cyl, recheck, tol)
            cross = submean_test(phi, cyl, cross_rule, tol)
            err = max(confirm.quad_error, abs(confirm.margin - cross.margin))
            if confirm.margin < -max(tol / 2.0, NOISE_FACTOR * err):
                return confirm
        return None

    workers = thread_count()
    violations = []
    checked = 0
    chunk = 32
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        run_all = map if pool is None else pool.map
        for start in range(0, len(jobs), chunk):
            batch = jobs[start : start + chunk]
            results = list(run_all(run_job, batch))
            checked += len(batch)
            violations.extend(r for r in results if r is not None)
            if max_violations is not None and len(violations) >= max_violations:
                break

    verdict = "violated" if violations else "no-violation-found"
    return PshScanResult(verdict, tuple(violations), checked)


def line_disc_mean(
    phi: ScalarField,
    z0,
    xi,
    r: float,
    s_sequence,
    rule: QuadratureRule,
) -> list:
    """Cylinder means along frames with first axis xi and shrinking s.

    The returned list has one entry per s, followed by the direct disc mean
    (1/(pi r^2)) int_{|w|<r} phi(z0 + w xi) as the degenerate limit.
    """
    z0 = as_point(z0)
    xi = as_point(xi)
    frame = unitary_from_first_column(xi)
    means = []
    for s in s_sequence:
        cyl = HolomorphicCylinder(z0, frame, r, float(s))
        means.append(cylinder_mean(phi, cyl, rule))
    means.append(_direct_line_disc_mean(phi, z0, xi, r, rule))
    return means


def _direct_line_disc_mean(phi, z0, xi, r, rule: QuadratureRule):
    disc = HolomorphicCylinder(np.zeros(1, dtype=complex), np.eye(1), r)
    sample = sample_cylinder(disc, rule)
    pts = z0[None, :] + sample.nodes[:, :1] * xi[None, :]
    vals = phi(pts)
    return clipped_mean(vals, sample.weights, disc.volume)
