"""Acceptance suite: nine oracle- and property-based criteria at desk scale.

Each criterion returns a CheckRecord with a deterministic numeric payload;
the determinism criterion re-runs the other eight and byte-compares the
serialized payloads.  Wall-clock fields live outside the compared payload.
Each criterion builds its tolerances first, every check reads its gate from them,
and the record reports that same dict.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import bochner, dbar1d, extension, fields, geometry, meanvalue, witness


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
    fd = fields.fd_levi_form(phi, z, h)
    exact = fields.levi_form(phi, z)
    return float(np.max(np.abs(fd - exact)) / max(np.max(np.abs(exact)), 1.0))


@_timed
def criterion_levi(seed: int) -> CheckRecord:
    tolerances = {"rel_error": 1e-4, "ratio_range": [3.5, 4.5]}
    lo, hi = tolerances["ratio_range"]
    errors, ratios, ok = {}, {}, True
    for spec, n, z, smooth in LEVI_CORPUS:
        phi = fields.get_field(spec, n)
        z = np.array(z, dtype=complex)
        err = _hessian_rel_error(phi, z, 1e-3)
        errors[spec] = err
        ok &= err <= tolerances["rel_error"]
        if smooth:
            ratio = _hessian_rel_error(phi, z, 1e-2) / _hessian_rel_error(phi, z, 5e-3)
            ratios[spec] = ratio
            ok &= lo <= ratio <= hi
    return CheckRecord("levi-oracle-agreement", ok,
                       {"max_entry_rel_errors": errors, "halving_ratios": ratios}, tolerances)


# -- 2 -----------------------------------------------------------------------


@_timed
def criterion_bochner(seed: int) -> CheckRecord:
    tolerances = {"n1": bochner.residual_gate(1), "n2": bochner.residual_gate(2)}
    residuals, ok = {}, True
    for n, radius in ((1, 0.9), (2, 0.8)):
        grid = bochner.make_grid(geometry.unit_ball(n, radius=1.3), bochner.default_grid_nodes(n))
        xi = np.array([1.0 + 0.0j]) if n == 1 else np.array([0.8, 0.6j])
        forms = {
            "bump_const": bochner.bump_const_form(xi, radius=radius),
            "bump_zbar2": bochner.bump_zbar_form(n, radius=radius),
        }
        phis = {"zero": bochner.zero_field(n), "sq_norm": fields.sq_norm(n)}
        # one band and gradient pass per form serves both weights
        reports = {name: bochner.bochner_residual(alpha, list(phis.values()), grid)
                   for name, alpha in forms.items()}
        for k, phi_name in enumerate(phis):
            for form_name, reps in reports.items():
                residuals[f"n{n}/{phi_name}/{form_name}"] = reps[k].residual
                ok &= reps[k].verified(tolerances[f"n{n}"])
    return CheckRecord("bochner-identity", ok, {"residuals": residuals}, tolerances)


# -- 3 -----------------------------------------------------------------------


@_timed
def criterion_meanvalue(seed: int) -> CheckRecord:
    tol = meanvalue.DEFAULT_MARGIN_TOL
    tolerances = {"psh_margin": -tol, "witness_margin": -1e-3}
    values, ok = {}, True
    psh_cases = (
        ("sq_norm", fields.sq_norm(2), geometry.unit_ball(2), 16384),
        ("log_abs", fields.log_abs(np.array([1.5 + 0.0j]), 1), geometry.unit_ball(1), 4096),
        ("max_log", fields.max_log(), geometry.unit_ball(2, radius=0.8, center=[0.9, 0.6j]), 16384),
    )
    for name, phi, region, budget in psh_cases:
        res = meanvalue.classify_psh(phi, region, 100, 10, seed=seed, tol=tol, budget=budget)
        values[f"psh/{name}/violations"] = len(res.violations)
        values[f"psh/{name}/cylinders"] = res.cylinders_checked
        ok &= res.verdict == "no-violation-found" and res.cylinders_checked == 1000
    witness_cases = (
        ("saddle", fields.saddle(2.0), geometry.unit_ball(2), 16384),
        ("neg_sq_norm", fields.neg_sq_norm(1), geometry.unit_ball(1), 4096),
    )
    for name, phi, region, budget in witness_cases:
        res = meanvalue.classify_psh(
            phi, region, 20, 5, seed=seed, tol=-tolerances["witness_margin"], budget=budget,
            max_violations=3)
        worst = min((v.margin for v in res.violations), default=0.0)
        values[f"witness/{name}/worst_margin"] = worst
        ok &= res.verdict == "violated" and worst < tolerances["witness_margin"]
    return CheckRecord("mean-value-characterization", ok, values, tolerances)


# -- 4 -----------------------------------------------------------------------


@_timed
def criterion_witness(seed: int) -> CheckRecord:
    s_max = witness.S_MAX
    tolerances = {"s_max": s_max, "E": 0.0, "saddle_xi2_abs": 0.99}
    values = {}
    grid_nodes = witness.default_grid_nodes
    psh_scan = witness.scan_sharp_witness(
        fields.sq_norm(1), fields.zero_omega(1), geometry.unit_ball(1), s_max, grid_nodes(1))
    values["sq_norm/no_certificate"] = psh_scan.certificate is None
    ok = psh_scan.certificate is None

    cases = (
        ("neg_sq_norm", fields.neg_sq_norm(1), fields.zero_omega(1), geometry.unit_ball(1)),
        ("saddle", fields.saddle(2.0), fields.zero_omega(2), geometry.unit_ball(2)),
    )
    for name, phi, omega, region in cases:
        cert = witness.scan_sharp_witness(phi, omega, region, s_max, grid_nodes(phi.n)).certificate
        if cert is None:
            ok = False
            values[f"{name}/E"] = None
            continue
        values[f"{name}/E"] = cert.E
        values[f"{name}/s"] = cert.s
        values[f"{name}/c"] = cert.c
        values[f"{name}/r"] = cert.r
        values[f"{name}/E_doubled"] = cert.E_doubled
        ok &= cert.E.sign < 0 and cert.E_doubled.sign < 0 and cert.s <= s_max
        if name == "saddle":
            direction = abs(cert.xi[1])
            values["saddle/xi2_abs"] = float(direction)
            ok &= direction > tolerances["saddle_xi2_abs"]
    return CheckRecord("sharp-estimate-witness", ok, values, tolerances)


# -- 5 -----------------------------------------------------------------------


@_timed
def criterion_coarse_chain(seed: int) -> CheckRecord:
    slack = np.format_float_scientific(fields.VERDICT_SLACK, trim="-", exp_digits=1)
    # the chain's gate is CoarseChainReport.verified, which the string names
    tolerances = {"chain": f"rhs <= (1+{slack}) bound", "growth_at_1e6": 1e-4}
    values, ok = {}, True
    phi = fields.re_linear(np.array([1.0 + 0.0j]), 1)
    w = np.array([0.2 + 0.1j])
    m_log_c = [(m, 0.0) for m in (1, 2, 4, 8)]
    for rep in witness.coarse_rhs_bound(
            phi, 2.0, w, ((0.5, 64), (0.25, 128)), (0.25, 0.0625), m_log_c):
        key = f"m{rep.m}/eps{rep.eps:g}/delta{rep.delta:g}"
        values[key + "/rhs"] = rep.rhs_integral
        values[key + "/bound"] = rep.bound
        ok &= rep.verified
    m_values = [10, 100, 10**4, 10**6]
    _, diag = witness.coarse_constant_growth(
        m_values, [0.0] * 4, 2.0, [2.0 * (1.0 / m) for m in m_values], n=1
    )
    values["growth/log_cprime_over_m_at_1e6"] = float(diag[-1])
    ok &= diag[-1] < tolerances["growth_at_1e6"]
    return CheckRecord("coarse-estimate-chain", ok, values, tolerances)


# -- 6 -----------------------------------------------------------------------


def _unit_disc_rule() -> tuple:
    """The unit disc of C and the 4096-node tensor rule of criteria 6 and 7."""
    disc = geometry.HolomorphicCylinder(np.zeros(1, dtype=complex), np.eye(1), 1.0)
    return disc, geometry.QuadratureRule("tensor-grid", 4096)


@_timed
def criterion_extension_chains(seed: int) -> CheckRecord:
    tolerances = {"jensen_residual": -1e-10, "pluriharmonic_margin": 1e-6, "coarse_gap": 1e-3}
    values, ok = {}, True
    disc, rule = _unit_disc_rule()

    sweep = (
        ("sq_norm/one", fields.sq_norm(1), extension.constant_one(np.zeros(1)), 2.0),
        ("neg_sq_norm/one", fields.neg_sq_norm(1), extension.constant_one(np.zeros(1)), 2.0),
        ("two_re_z/exp", fields.re_linear(np.array([2.0 + 0.0j]), 1),
         extension.exp_linear(np.array([1.0 + 0.0j]), np.zeros(1)), 2.0),
        ("sq_norm/exp", fields.sq_norm(1),
         extension.exp_linear(np.array([0.5 + 0.5j]), np.zeros(1)), 4.0),
    )
    worst_res1 = 0.0
    for name, phi, cand, p in sweep:
        res1, res2, concl = extension.jensen_chain_check(phi, disc, cand, p, rule)
        values[f"jensen/{name}/residual1"] = res1
        worst_res1 = min(worst_res1, res1)
    ok &= worst_res1 >= tolerances["jensen_residual"]
    values["jensen/worst_residual1"] = worst_res1

    phi_h = fields.re_linear(np.array([2.0 + 0.0j]), 1)
    rep = extension.optimal_extension_margin(
        phi_h, disc, extension.exp_linear(np.array([1.0 + 0.0j]), np.zeros(1)), 2.0, rule
    )
    values["pluriharmonic/margin"] = rep.margin
    ok &= abs(rep.margin) <= tolerances["pluriharmonic_margin"]

    # unit-volume cylinder so log(mu)/m vanishes from the coarse bound
    r_unit = 1.0 / math.sqrt(math.pi)
    disc_unit = geometry.HolomorphicCylinder(np.zeros(1, dtype=complex), np.eye(1), r_unit)
    phi = fields.sq_norm(1)
    mean_phi = r_unit**2 / 2.0
    for m in (1, 4, 32):
        _, b_tilde = extension.coarse_extension_bound(
            phi, disc_unit, extension.constant_one(np.zeros(1)), 0.0, m, 2.0, rule
        )
        values[f"coarse/b_tilde_m{m}"] = b_tilde
    gap = abs(values["coarse/b_tilde_m32"] - mean_phi)
    values["coarse/gap_at_m32"] = gap
    ok &= gap <= tolerances["coarse_gap"]
    return CheckRecord("extension-chains", ok, values, tolerances)


# -- 7 -----------------------------------------------------------------------


@_timed
def criterion_best_constant(seed: int) -> CheckRecord:
    # neg_sq_norm_exceeds: the flat weight's value, 1, which neg_sq_norm's must exceed
    tolerances = {"flat": 1e-10, "neg_sq_norm": 1e-6, "neg_sq_norm_exceeds": 1.0}
    values = {}
    disc, rule = _unit_disc_rule()
    flat = bochner.zero_field(1)
    value_flat = extension.best_extension_constant(flat, disc, 8, rule)[1].value
    values["flat/value"] = value_flat
    value_neg = extension.best_extension_constant(fields.neg_sq_norm(1), disc, 8, rule)[1].value
    values["neg_sq_norm/value"] = value_neg
    values["neg_sq_norm/target"] = math.e - 1.0
    ok = (abs(value_flat - 1.0) <= tolerances["flat"]
          and abs(value_neg - (math.e - 1.0)) <= tolerances["neg_sq_norm"])
    ok &= value_neg > tolerances["neg_sq_norm_exceeds"]
    return CheckRecord("best-constant-threshold", ok, values, tolerances)


# -- 8 -----------------------------------------------------------------------


@_timed
def criterion_hormander_ratio(seed: int) -> CheckRecord:
    tolerances = {"subharmonic_ratio": 1.02, "witness_ratio": 1.0, "residual": dbar1d.RESIDUAL_GATE}
    values, ok = {}, True
    grid = bochner.make_grid(geometry.unit_ball(1, radius=2.0), 256)
    phis = (("zero", bochner.zero_field(1)), ("sq_norm", fields.sq_norm(1)))
    results = dbar1d.hormander_ratio(
        [(phi, fields.sq_norm(1)) for _, phi in phis], dbar1d.dbar_bump(), 10, grid)
    for (name, _), result in zip(phis, results):
        values[f"{name}/ratio"] = result.ratio
        values[f"{name}/residual"] = result.residual
        ok &= (result.ratio <= tolerances["subharmonic_ratio"]
               and result.residual <= tolerances["residual"])

    z0 = np.zeros(1, dtype=complex)
    f = witness.build_witness_form(z0, np.array([1.0]), 0.5)
    schedule = witness.s_schedule(witness.S_MAX)
    weights = [(fields.neg_sq_norm(1), witness.build_psi_s(z0, 0.5, s)) for s in schedule]
    best = 0.0
    for s, result in zip(schedule, dbar1d.hormander_ratio(weights, f, 10, grid)):
        values[f"witness/ratio_s{s:g}"] = result.ratio
        best = max(best, result.ratio)
    values["witness/max_ratio"] = best
    ok &= best > tolerances["witness_ratio"]
    return CheckRecord("hormander-ratio", ok, values, tolerances)


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


def json_default(obj):
    """JSON form of the numpy, complex and Scaled values in reports: complex arrays
    as [re, im] pairs, numpy scalars as Python numbers, a Scaled as its value."""
    if isinstance(obj, fields.Scaled):
        return obj.value
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return [[float(v.real), float(v.imag)] for v in obj]
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def payload_bytes(records) -> bytes:
    return json.dumps(
        [r.payload() for r in records], sort_keys=True, default=json_default
    ).encode()


def run_criteria(seed: int) -> list:
    return [crit(seed) for crit in CRITERIA]


@_timed
def criterion_determinism(seed: int, first: bytes) -> CheckRecord:
    """Re-runs the other criteria and compares with their first payload bytes."""
    second = payload_bytes(run_criteria(seed))
    same = first == second
    return CheckRecord(
        "determinism", same,
        {"payload_bytes": len(first), "byte_identical": same},
        {"comparison": "byte-identical numeric payloads"},
    )


def run_suite(seed: int) -> list:
    """The records of all nine criteria; a criterion over its runtime limit fails.
    The determinism criterion compares the payloads from before the limits apply."""
    records = run_criteria(seed)
    records.append(criterion_determinism(seed, payload_bytes(records)))
    return [replace(rec, passed=rec.passed and rec.seconds <= RUNTIME_LIMITS[rec.name])
            for rec in records]


def render_lines(records) -> list:
    return [
        f"[{'PASS' if rec.passed else 'FAIL'}] {rec.name}: {rec.seconds:.1f}s "
        f"(limit {RUNTIME_LIMITS[rec.name]:.0f}s)"
        for rec in records
    ]
