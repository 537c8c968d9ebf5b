"""Acceptance suite: nine oracle- and property-based criteria at desk scale.

Each criterion returns a CheckRecord with a deterministic numeric payload;
the determinism criterion re-runs the other eight and byte-compares the
serialized payloads.  Wall-clock fields live outside the compared payload.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import fields
from .bochner import bochner_residual, bump_const_form, bump_zbar_form, make_grid, zero_field
from .dbar1d import hormander_ratio
from .extension import (
    best_extension_constant,
    coarse_extension_bound,
    constant_one,
    exp_linear,
    jensen_chain_check,
    optimal_extension_margin,
)
from .geometry import HolomorphicCylinder, QuadratureRule, unit_ball
from .meanvalue import classify_psh
from .witness import (
    alpha_from_f,
    build_psi_s,
    build_witness_form,
    coarse_constant_growth,
    coarse_rhs_bound,
    estimate_functional_E,
    make_cutoff,
    scan_sharp_witness,
    _witness_grid,
)


@dataclass
class CheckRecord:
    name: str
    passed: bool
    values: dict
    tolerances: dict
    seconds: float = 0.0

    def payload(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "values": self.values,
            "tolerances": self.tolerances,
        }


def _timed(func):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        record = func(*args, **kwargs)
        record.seconds = time.perf_counter() - t0
        return record

    return wrapper


# -- 1 -----------------------------------------------------------------------

LEVI_CORPUS = (
    ("sq_norm", 2, (0.3 + 0.2j, -0.1 + 0.4j), False),
    ("neg_sq_norm", 2, (0.5 + 0.1j, 0.2 - 0.3j), False),
    ("saddle:2", 2, (0.4 - 0.2j, 0.3 + 0.1j), False),
    ("log_abs", 1, (0.8 + 0.3j,), True),
    ("re_linear", 2, (0.1 + 0.7j, -0.4 + 0.2j), False),
    ("log1p_sq", 1, (0.5 + 0.25j,), True),
    ("max_log", 2, (0.9 + 0.1j, 0.3 - 0.2j), False),
    ("cross", 2, (0.2 + 0.3j, -0.5 + 0.1j), False),
    ("neg_gauss", 2, (0.4 + 0.1j, 0.2 + 0.5j), True),
)


def _hessian_rel_error(phi, z, h):
    from .fields import levi_form

    fd = levi_form(phi, z, h=h, use_analytic=False)
    exact = levi_form(phi, z, use_analytic=True)
    return float(np.max(np.abs(fd - exact)) / max(np.max(np.abs(exact)), 1.0))


@_timed
def criterion_levi(seed: int) -> CheckRecord:
    errors = {}
    ratios = {}
    ok = True
    for spec, n, z, smooth in LEVI_CORPUS:
        phi = fields.get_field(spec, n)
        z = np.array(z, dtype=complex)
        err = _hessian_rel_error(phi, z, 1e-3)
        errors[spec] = err
        ok &= err <= 1e-4
        if smooth:
            ratio = _hessian_rel_error(phi, z, 1e-2) / _hessian_rel_error(phi, z, 5e-3)
            ratios[spec] = ratio
            ok &= 3.5 <= ratio <= 4.5
    return CheckRecord(
        "levi-oracle-agreement", ok,
        {"max_entry_rel_errors": errors, "halving_ratios": ratios},
        {"rel_error": 1e-4, "ratio_range": [3.5, 4.5]},
    )


# -- 2 -----------------------------------------------------------------------


@_timed
def criterion_bochner(seed: int) -> CheckRecord:
    residuals = {}
    ok = True
    for n, nodes, radius, tol in ((1, 256, 0.9, 1e-3), (2, 24, 0.8, 5e-3)):
        grid = make_grid(unit_ball(n, radius=1.3), nodes)
        xi = np.zeros(n, dtype=complex)
        xi[0] = 1.0
        if n == 2:
            xi = np.array([0.8, 0.6j])
        forms = {
            "bump_const": bump_const_form(xi, radius=radius),
            "bump_zbar2": bump_zbar_form(n, radius=radius),
        }
        for phi_name, phi in (("zero", zero_field(n)), ("sq_norm", fields.sq_norm(n))):
            for form_name, alpha in forms.items():
                rep = bochner_residual(alpha, phi, grid)
                residuals[f"n{n}/{phi_name}/{form_name}"] = rep.residual
                ok &= rep.residual <= tol
    return CheckRecord(
        "bochner-identity", ok, {"residuals": residuals},
        {"n1": 1e-3, "n2": 5e-3},
    )


# -- 3 -----------------------------------------------------------------------


@_timed
def criterion_meanvalue(seed: int) -> CheckRecord:
    values = {}
    ok = True
    psh_cases = (
        ("sq_norm", fields.sq_norm(2), unit_ball(2), 16384),
        ("log_abs", fields.log_abs(np.array([1.5 + 0.0j]), 1), unit_ball(1), 4096),
        ("max_log", fields.max_log(), unit_ball(2, radius=0.8, center=[0.9, 0.6j]), 16384),
    )
    for name, phi, region, budget in psh_cases:
        res = classify_psh(phi, region, 100, 10, seed=seed, tol=1e-6, budget=budget)
        values[f"psh/{name}/violations"] = len(res.violations)
        values[f"psh/{name}/cylinders"] = res.cylinders_checked
        ok &= res.verdict == "no-violation-found" and res.cylinders_checked == 1000
    witness_cases = (
        ("saddle", fields.saddle(2.0), unit_ball(2), 16384),
        ("neg_sq_norm", fields.neg_sq_norm(1), unit_ball(1), 4096),
    )
    for name, phi, region, budget in witness_cases:
        res = classify_psh(
            phi, region, 20, 5, seed=seed, tol=1e-3, budget=budget, max_violations=3
        )
        worst = min((v.margin for v in res.violations), default=0.0)
        values[f"witness/{name}/worst_margin"] = worst
        ok &= res.violated and worst < -1e-3
    return CheckRecord(
        "mean-value-characterization", ok, values,
        {"psh_margin": -1e-6, "witness_margin": -1e-3},
    )


# -- 4 -----------------------------------------------------------------------


@_timed
def criterion_witness(seed: int) -> CheckRecord:
    values = {}
    none_cert = scan_sharp_witness(fields.sq_norm(1), fields.zero_omega(1), unit_ball(1))
    values["sq_norm/no_certificate"] = none_cert is None
    ok = none_cert is None

    cases = (
        ("neg_sq_norm", fields.neg_sq_norm(1), fields.zero_omega(1), unit_ball(1)),
        ("saddle", fields.saddle(2.0), fields.zero_omega(2), unit_ball(2)),
    )
    for name, phi, omega, region in cases:
        cert = scan_sharp_witness(phi, omega, region)
        if cert is None:
            ok = False
            values[f"{name}/E"] = None
            continue
        values[f"{name}/E"] = cert.E
        values[f"{name}/s"] = cert.s
        values[f"{name}/c"] = cert.c
        values[f"{name}/r"] = cert.r
        # explicit sign-stability record at doubled grid resolution
        chi = make_cutoff("witness")
        _, f = build_witness_form(cert.z0, cert.xi, cert.r, chi)
        fine = _witness_grid(cert.z0, cert.r, 2 * cert.grid_nodes)
        psi = build_psi_s(cert.z0, cert.r, cert.s)
        alpha = alpha_from_f(
            f.evaluate(fine.points).T, omega(fine.points) + cert.s * np.eye(phi.n)
        ).T
        e_fine = estimate_functional_E(alpha, phi, psi, omega, fine)
        values[f"{name}/E_doubled"] = e_fine
        ok &= cert.E < 0.0 and e_fine < 0.0 and cert.s <= 1e4
        if name == "saddle":
            direction = abs(cert.xi[1])
            values["saddle/xi2_abs"] = float(direction)
            ok &= direction > 0.99
    return CheckRecord(
        "sharp-estimate-witness", ok, values,
        {"s_max": 1e4, "E": 0.0},
    )


# -- 5 -----------------------------------------------------------------------


@_timed
def criterion_coarse_chain(seed: int) -> CheckRecord:
    values = {}
    ok = True
    phi = fields.re_linear(np.array([1.0 + 0.0j]), 1)
    w = np.array([0.2 + 0.1j])
    for m in (1, 2, 4, 8):
        for eps in (0.5, 0.25):
            for delta in (0.25, 0.0625):
                rep = coarse_rhs_bound(
                    phi, m, 2.0, w, eps, delta, 0.0,
                    grid_nodes=64 if eps == 0.5 else 128,
                )
                key = f"m{m}/eps{eps:g}/delta{delta:g}"
                values[key + "/rhs"] = rep.rhs_integral
                values[key + "/bound"] = rep.bound
                ok &= rep.verified
    m_values = [10, 100, 10**4, 10**6]
    _, diag = coarse_constant_growth(
        m_values, [0.0] * 4, 2.0, lambda e: 2.0 * e, n=1, region_radius=1.0
    )
    values["growth/log_cprime_over_m_at_1e6"] = float(diag[-1])
    ok &= diag[-1] < 1e-4
    return CheckRecord(
        "coarse-estimate-chain", ok, values,
        {"chain": "rhs <= (1+1e-9) bound", "growth_at_1e6": 1e-4},
    )


# -- 6 -----------------------------------------------------------------------


@_timed
def criterion_extension_chains(seed: int) -> CheckRecord:
    values = {}
    ok = True
    rule = QuadratureRule("tensor-grid", 4096, seed)
    disc = HolomorphicCylinder(np.zeros(1, dtype=complex), np.eye(1), 1.0)

    sweep = (
        ("sq_norm/one", fields.sq_norm(1), constant_one(np.zeros(1)), 2.0),
        ("neg_sq_norm/one", fields.neg_sq_norm(1), constant_one(np.zeros(1)), 2.0),
        ("two_re_z/exp", fields.re_linear(np.array([2.0 + 0.0j]), 1),
         exp_linear(np.array([1.0 + 0.0j]), np.zeros(1)), 2.0),
        ("sq_norm/exp", fields.sq_norm(1), exp_linear(np.array([0.5 + 0.5j]), np.zeros(1)), 4.0),
    )
    worst_res1 = 0.0
    for name, phi, cand, p in sweep:
        res1, res2, concl = jensen_chain_check(phi, np.zeros(1), disc, cand, p, rule)
        values[f"jensen/{name}/residual1"] = res1
        worst_res1 = min(worst_res1, res1)
    ok &= worst_res1 >= -1e-10
    values["jensen/worst_residual1"] = worst_res1

    phi_h = fields.re_linear(np.array([2.0 + 0.0j]), 1)
    rep = optimal_extension_margin(
        phi_h, np.zeros(1), disc, exp_linear(np.array([1.0 + 0.0j]), np.zeros(1)), 2.0, rule
    )
    values["pluriharmonic/margin"] = rep.margin
    ok &= abs(rep.margin) <= 1e-6

    # unit-volume cylinder so log(mu)/m vanishes from the coarse bound
    r_unit = 1.0 / math.sqrt(math.pi)
    disc_unit = HolomorphicCylinder(np.zeros(1, dtype=complex), np.eye(1), r_unit)
    phi = fields.sq_norm(1)
    mean_phi = r_unit**2 / 2.0
    for m in (1, 4, 32):
        _, b_tilde = coarse_extension_bound(
            phi, np.zeros(1), disc_unit, constant_one(np.zeros(1)), 0.0, m, 2.0, rule
        )
        values[f"coarse/b_tilde_m{m}"] = b_tilde
    gap = abs(values["coarse/b_tilde_m32"] - mean_phi)
    values["coarse/gap_at_m32"] = gap
    ok &= gap <= 1e-3
    return CheckRecord(
        "extension-chains", ok, values,
        {"jensen_residual": -1e-10, "pluriharmonic_margin": 1e-6, "coarse_gap": 1e-3},
    )


# -- 7 -----------------------------------------------------------------------


@_timed
def criterion_best_constant(seed: int) -> CheckRecord:
    values = {}
    rule = QuadratureRule("tensor-grid", 4096, seed)
    disc = HolomorphicCylinder(np.zeros(1, dtype=complex), np.eye(1), 1.0)
    flat = zero_field(1)
    _, value_flat = best_extension_constant(flat, np.zeros(1), disc, 8, rule)
    values["flat/value"] = value_flat
    _, value_neg = best_extension_constant(fields.neg_sq_norm(1), np.zeros(1), disc, 8, rule)
    values["neg_sq_norm/value"] = value_neg
    values["neg_sq_norm/target"] = math.e - 1.0
    ok = abs(value_flat - 1.0) <= 1e-10 and abs(value_neg - (math.e - 1.0)) <= 1e-6
    ok &= value_neg > 1.0
    return CheckRecord(
        "best-constant-threshold", ok, values,
        {"flat": 1e-10, "neg_sq_norm": 1e-6},
    )


# -- 8 -----------------------------------------------------------------------


@_timed
def criterion_hormander_ratio(seed: int) -> CheckRecord:
    from .bochner import FormField01, bump_profile

    values = {}
    ok = True
    grid = make_grid(unit_ball(1, radius=2.0), 256)
    _, dzbar = bump_profile(np.zeros(1), 1.0, 1)
    rhs = FormField01("dbar_bump", 1, (lambda z: dzbar(z, 0),), unit_ball(1))
    for name, phi in (("zero", zero_field(1)), ("sq_norm", fields.sq_norm(1))):
        result = hormander_ratio(phi, fields.sq_norm(1), rhs, 10, grid)
        values[f"{name}/ratio"] = result.ratio
        values[f"{name}/residual"] = result.residual
        ok &= result.ratio <= 1.02 and result.residual <= 5e-3

    z0 = np.zeros(1, dtype=complex)
    _, f = build_witness_form(z0, np.array([1.0]), 0.5, make_cutoff("witness"))
    best = 0.0
    for s in (10.0, 100.0, 1000.0, 10000.0):
        psi = build_psi_s(z0, 0.5, s)
        ratio = hormander_ratio(fields.neg_sq_norm(1), psi, f, 10, grid).ratio
        values[f"witness/ratio_s{s:g}"] = ratio
        best = max(best, ratio)
    values["witness/max_ratio"] = best
    ok &= best > 1.0
    return CheckRecord(
        "hormander-ratio", ok, values,
        {"subharmonic_ratio": 1.02, "witness_ratio": 1.0},
    )


# -- 9 and the runner ---------------------------------------------------------

CRITERIA = (
    criterion_levi,
    criterion_bochner,
    criterion_meanvalue,
    criterion_witness,
    criterion_coarse_chain,
    criterion_extension_chains,
    criterion_best_constant,
    criterion_hormander_ratio,
)

RUNTIME_LIMITS = {
    "levi-oracle-agreement": 5.0,
    "bochner-identity": 60.0,
    "mean-value-characterization": 30.0,
    "sharp-estimate-witness": 120.0,
    "coarse-estimate-chain": 30.0,
    "extension-chains": 20.0,
    "best-constant-threshold": 10.0,
    "hormander-ratio": 60.0,
    "determinism": 300.0,
}


def payload_bytes(records) -> bytes:
    from .cli import _json_default  # cli imports this module

    return json.dumps(
        [r.payload() for r in records], sort_keys=True, default=_json_default
    ).encode()


def run_criteria(seed: int) -> list:
    return [crit(seed) for crit in CRITERIA]


@_timed
def criterion_determinism(seed: int, first: bytes = None) -> CheckRecord:
    if first is None:
        first = payload_bytes(run_criteria(seed))
    second = payload_bytes(run_criteria(seed))
    same = first == second
    return CheckRecord(
        "determinism", same,
        {"payload_bytes": len(first), "byte_identical": same},
        {"comparison": "byte-identical numeric payloads"},
    )


def run_suite(seed: int = 2024, with_determinism: bool = True) -> list:
    records = run_criteria(seed)
    if with_determinism:
        records.append(criterion_determinism(seed, payload_bytes(records)))
    return records


def render_lines(records) -> list:
    lines = []
    for rec in records:
        status = "PASS" if rec.passed else "FAIL"
        limit = RUNTIME_LIMITS.get(rec.name)
        budget = f" (limit {limit:.0f}s)" if limit else ""
        lines.append(f"[{status}] {rec.name}: {rec.seconds:.1f}s{budget}")
    return lines
