"""Cylinder sub-mean-value tests for plurisubharmonicity.

A function that is psh satisfies phi(z0) <= (1/mu(P)) int_{z0+P} phi for every
holomorphic cylinder P; a single cylinder with a negative margin is a concrete
violation witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import ScalarField
from .geometry import (
    DomainBox, HolomorphicCylinder, QuadratureRule, sample_cylinder, seeded_frame, weighted_total,
)

# a margin below -DEFAULT_MARGIN_TOL is a candidate violation: the tolerance of
# check-psh by default and of criterion 3's psh scans
DEFAULT_MARGIN_TOL = 1e-6
# a confirmed violation must exceed this multiple of the quadrature-error
# estimate; guards against kink-induced noise on merely continuous fields
NOISE_FACTOR = 8.0
# scan radii r and s, as fractions of the region's smallest extent
RADIUS_RANGE = (0.1, 0.5)


@dataclass(frozen=True)
class MeanValueReport:
    cylinder: HolomorphicCylinder
    mean: float
    margin: float
    quad_error: Optional[float]


def clipped_mean(values: np.ndarray, weights: np.ndarray, measure: float) -> float:
    """Mean of a usc integrand: the weighted mean when every value is finite, else -inf.

    A node on the pole set (value -inf) has no finite clip: the means of
    max(phi, -M) move by M times its weight over measure as M grows, and no
    rule the program builds has a node weight below 5e-7 of its measure.
    NaN and +inf count as not finite too.
    """
    if np.all(np.isfinite(values)):
        return float(weighted_total(values, weights) / measure)
    return float("-inf")


def cylinder_mean(
    phi: ScalarField, cyl: HolomorphicCylinder, rule: QuadratureRule
) -> float:
    """Quadrature approximation of (1/mu(P)) int_{z0+P} phi; may return -inf."""
    sample = sample_cylinder(cyl, rule)
    return clipped_mean(phi(sample.nodes), sample.weights, cyl.volume)


def submean_test(
    phi: ScalarField,
    cyl: HolomorphicCylinder,
    rule: QuadratureRule,
    coarse_mean: Optional[float] = None,
) -> MeanValueReport:
    """Margin = mean - phi(z0) under one rule.

    quad_error is the embedded-rule estimate |mean - coarse_mean| from the mean
    of a coarser rule that the caller has already taken, inf if either mean is
    not finite, and None without a coarse mean.
    """
    center_val = phi.value_at(cyl.center)
    if not np.isfinite(center_val):
        raise ValueError("submean_test needs a center off the pole set")
    mean = cylinder_mean(phi, cyl, rule)
    err = None
    if coarse_mean is not None:
        finite = np.isfinite(mean) and np.isfinite(coarse_mean)
        err = abs(mean - coarse_mean) if finite else float("inf")
    return MeanValueReport(cyl, mean, mean - center_val, err)


@dataclass(frozen=True)
class PshScanResult:
    violations: tuple
    cylinders_checked: int

    verdict = property(lambda self: "violated" if self.violations else "no-violation-found")


def classify_psh(
    phi: ScalarField,
    region: DomainBox,
    centers: int,
    cylinders_per_center: int,
    seed: int,
    tol: float = DEFAULT_MARGIN_TOL,
    *,
    budget: int,
    max_violations: Optional[int] = None,
) -> PshScanResult:
    """Randomized sub-mean-value scan over a region, deterministic under seed.

    Each cylinder takes one tensor rule at the node budget.  Every candidate
    violation (margin < -tol) is re-checked by the tensor rule at 4x budget and
    reported only if the margin stays below -tol/2 and clears the quadrature
    noise floor.  The noise floor combines the recheck's embedded-rule estimate,
    whose coarse rule is the first pass at a quarter of its budget, with a
    cross-rule comparison against a quasi-random rule at 4x budget, whose errors
    are independent, so kink-induced bias on merely continuous fields cannot
    masquerade as a violation.  Cylinder centers are drawn uniformly in the
    region, never on the pole set; radii come from RADIUS_RANGE scaled by the
    region size.  max_violations stops the scan right after the cylinder that
    confirms that many violations; cylinders_checked counts the cylinders that
    ran.
    """
    if centers < 1 or cylinders_per_center < 1:
        raise ValueError("empty scan budget")
    # glibc raises its mmap threshold, and its heap-trim threshold to twice that, to the
    # largest mmap'd block freed so far.  Freeing one 8 MiB block keeps the per-cylinder
    # arrays (0.5 MB at budget 16384) in the heap; otherwise a cold process trims and
    # re-faults the heap top on every cylinder (44k page faults in 400 cylinders).
    np.empty(1 << 20)
    n = phi.n
    scale = float(np.min(region.extents))
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def draws():  # each center and its cylinders, drawn only when the scan reaches them
        for _ in range(centers):
            center = None
            for _ in range(256):
                cand = region.sample_uniform(rng, 1)[0]
                if np.isfinite(phi.value_at(cand)):
                    center = cand
                    break
            if center is None:
                raise ValueError("could not sample a center off the pole set")
            for _ in range(cylinders_per_center):
                frame_seed = int(rng.integers(0, 2**63 - 1))
                r = float(rng.uniform(*RADIUS_RANGE)) * scale
                s = float(rng.uniform(*RADIUS_RANGE)) * scale
                yield center, frame_seed, r, s

    rule = QuadratureRule("tensor-grid", budget)
    recheck = QuadratureRule("tensor-grid", 4 * budget)
    cross_rule = QuadratureRule("quasi-random", 4 * budget, seed + 1)

    violations = []
    checked = 0
    for center, frame_seed, r, s in draws():
        checked += 1
        cyl = HolomorphicCylinder(center, seeded_frame(frame_seed, n), r, s)
        report = submean_test(phi, cyl, rule)
        if report.margin < -tol:
            confirm = submean_test(phi, cyl, recheck, coarse_mean=report.mean)
            cross = submean_test(phi, cyl, cross_rule)
            err = max(confirm.quad_error, abs(confirm.margin - cross.margin))
            if confirm.margin < -max(tol / 2.0, NOISE_FACTOR * err):
                violations.append(confirm)
                if len(violations) == max_violations:
                    break

    return PshScanResult(tuple(violations), checked)
