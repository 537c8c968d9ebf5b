"""Command-line front end: corpus registry, subcommand dispatch, JSON/CSV reports.

Subcommands: levi, check-psh, bochner, witness, coarse-chain, extend,
coarse-extend, dbar, accept.  Reports are schema-versioned JSON written
atomically; sweep tables are CSV.  PSHLAB_THREADS caps scan parallelism.
All emitted floats round-trip exactly (shortest repr of the double).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time
from typing import Optional

import numpy as np

from . import __version__, fields
from .acceptance import RUNTIME_LIMITS, render_lines, run_suite
from .bochner import bochner_residual, get_form, make_grid
from .dbar1d import hormander_ratio
from .errors import PshlabError
from .extension import (
    best_extension_constant,
    coarse_extension_bound,
    constant_one,
    optimal_extension_margin,
)
from .geometry import (
    DEFAULT_BUDGET,
    DomainBox,
    HolomorphicCylinder,
    QuadratureRule,
    random_unitary,
    unit_ball,
)
from .meanvalue import classify_psh
from .witness import (
    DEFAULT_E_GRID,
    build_psi_s,
    coarse_constant_growth,
    coarse_rhs_bound,
    modulus_of_continuity,
    scan_sharp_witness,
)

SCHEMA_VERSION = 1


class ConfigError(PshlabError):
    """A CLI value failed to parse; the message names the offending field."""


def parse_point(text: str, field_name: str) -> np.ndarray:
    """Points are JSON arrays of [re, im] pairs."""
    try:
        return fields.parse_point(json.loads(text), 0)
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid --{field_name}: {exc}") from exc


def parse_cylinder(text: str, n: int, center: np.ndarray, field_name: str = "cylinder"):
    """Cylinder spec string: "r=<f>,s=<f>,seed=<u64>"."""
    parts = {}
    try:
        for chunk in text.split(","):
            key, _, raw = chunk.partition("=")
            key = key.strip()
            if key not in ("r", "s", "seed"):
                raise ValueError(f"unknown key {key!r}")
            parts[key] = raw.strip()
        r = float(parts["r"])
        s = float(parts.get("s", "1.0"))
        seed = int(parts.get("seed", "0"))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid --{field_name} (expected r=<f>,s=<f>,seed=<u64>): {exc}") from exc
    frame = random_unitary(seed, n) if n > 1 else np.eye(1, dtype=complex)
    return HolomorphicCylinder(center, frame, r, s)


def parse_list(text: str, field_name: str, kind, valid, expected: str) -> list:
    """A comma list of option values, each converted by kind and accepted by valid."""
    try:
        values = [kind(v) for v in text.split(",")]
    except ValueError:
        values = []
    if not values or not all(valid(v) for v in values):
        raise ConfigError(f"invalid --{field_name} {text!r} (expected a comma list of {expected})")
    return values


def parse_m_values(text: str) -> list:
    return parse_list(text, "m", int, lambda m: m > 0, "positive integers")


def parse_region(text: str, field_name: str = "region") -> DomainBox:
    """Region JSON: {"kind": "ball"|"polydisc"|"box", "center": [[re,im],...],
    "radius": f} (ball) or {"extents": [...]} otherwise."""
    try:
        obj = json.loads(text)
        kind = obj["kind"]
        center = fields.parse_point(obj["center"], 0)
        if kind == "ball":
            extents = np.array([float(obj["radius"])])
        else:
            extents = np.asarray(obj["extents"], dtype=float)
        known = {"kind", "center", "radius", "extents"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        return DomainBox(kind, center, extents)
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid --{field_name}: {exc}") from exc


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pshlab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_default(obj):
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


def write_report(
    path: Optional[str], command: str, config: dict, checks: list, t0: float, **extra
):
    """Write the JSON report when path is set and return it; extra adds top-level sections."""
    config = {k: v for k, v in config.items() if k not in ("func_impl", "command")}
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": "pshlab",
        "version": __version__,
        "command": command,
        "config": config,
        "checks": checks,
        **extra,
        "wall_clock_seconds": time.perf_counter() - t0,
    }
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
    if path:
        _atomic_write(path, text + "\n")
    return report


def write_csv(path: str, header: list, rows: list) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    _atomic_write(path, buf.getvalue())


def _check(name: str, passed: bool, values: dict, tolerances: dict) -> dict:
    return {"name": name, "passed": bool(passed), "values": values, "tolerances": tolerances}


def _print_checks(checks: list) -> bool:
    all_ok = True
    for chk in checks:
        status = "PASS" if chk["passed"] else "FAIL"
        print(f"[{status}] {chk['name']}")
        all_ok &= chk["passed"]
    return all_ok


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _region_for(args) -> "DomainBox":
    if args.region is None:
        # echo the effective default so reports carry every knob
        args.region = json.dumps(
            {
                "kind": "ball",
                "center": [[0.0, 0.0]] * args.dim,
                "radius": 1.0,
            }
        )
        return unit_ball(args.dim)
    return parse_region(args.region)


def cmd_levi(args) -> int:
    t0 = time.perf_counter()
    phi = fields.get_field(args.func, args.dim)
    omega = fields.get_omega(args.omega, args.dim)
    region = _region_for(args)
    verdict = fields.check_lower_bound(phi, omega, region, args.resolution, args.tol)
    values = {"holds": verdict.holds, "lambda_min": verdict.lambda_min, "c": verdict.c}
    if verdict.z0 is not None:
        values["z0"] = verdict.z0
        values["xi"] = verdict.xi
    checks = [_check("levi-lower-bound", verdict.holds, values, {"tol": args.tol})]
    write_report(args.out, "levi", vars(args), checks, t0)
    return 0 if _print_checks(checks) else 1


def cmd_check_psh(args) -> int:
    t0 = time.perf_counter()
    phi = fields.get_field(args.func, args.dim)
    region = _region_for(args)
    if args.budget is None:
        args.budget = DEFAULT_BUDGET.get(args.dim, 4096)
    res = classify_psh(
        phi, region, args.centers, args.cylinders, args.seed,
        tol=args.tol, budget=args.budget,
    )
    violations = [
        {
            "center": rep.center,
            "frame": rep.cylinder.frame.ravel(),
            "r": rep.cylinder.r,
            "s": rep.cylinder.s,
            "mean": rep.mean,
            "margin": rep.margin,
            "quad_error": rep.quad_error,
        }
        for rep in res.violations
    ]
    checks = [
        _check(
            "sub-mean-value-scan",
            res.verdict == "no-violation-found",
            {
                "verdict": res.verdict,
                "cylinders_checked": res.cylinders_checked,
                "violations": violations,
            },
            {"margin_tol": args.tol},
        )
    ]
    write_report(args.out, "check-psh", vars(args), checks, t0)
    _print_checks(checks)
    # a found violation is a successful falsification, not a tool failure
    return 0


def cmd_bochner(args) -> int:
    t0 = time.perf_counter()
    phi = fields.get_field(args.func, args.dim)
    alpha = get_form(args.form, args.dim)
    if args.grid is None:
        args.grid = 256 if args.dim == 1 else 24
    nodes = args.grid
    # inflate the box until the support margin accommodates the FD stencil
    radius = float(alpha.support.extents[0])
    pad = 10.0 * radius / max(nodes - 11, 1)
    grid = make_grid(
        DomainBox("ball", alpha.support.center, np.array([radius + pad])), nodes
    )
    rep = bochner_residual(alpha, phi, grid)
    tol = 1e-3 if args.dim == 1 else 5e-3
    checks = [
        _check(
            "bochner-identity",
            rep.residual <= tol,
            {
                "lhs": rep.lhs, "rhs": rep.rhs, "residual": rep.residual,
                "curvature_term": rep.curvature_term, "gradient_term": rep.gradient_term,
                "dbar_term": rep.dbar_term, "adjoint_term": rep.adjoint_term,
            },
            {"residual": tol},
        )
    ]
    write_report(args.out, "bochner", vars(args), checks, t0)
    return 0 if _print_checks(checks) else 1


def cmd_witness(args) -> int:
    t0 = time.perf_counter()
    phi = fields.get_field(args.func, args.dim)
    omega = fields.get_omega(args.omega, args.dim)
    region = _region_for(args)
    schedule = []
    s = 10.0
    while s <= args.smax * (1.0 + 1e-12):
        schedule.append(s)
        s *= 10.0
    if not args.grid:
        args.grid = DEFAULT_E_GRID.get(args.dim, 16)
    cert = scan_sharp_witness(
        phi, omega, region, s_schedule=schedule, grid_nodes=args.grid
    )
    if cert is None:
        checks = [
            _check("sharp-witness", True, {"certificate": None}, {"smax": args.smax})
        ]
    else:
        checks = [
            _check(
                "sharp-witness", cert.E < 0.0, {"certificate": cert.as_dict()},
                {"smax": args.smax},
            )
        ]
    write_report(args.out, "witness", vars(args), checks, t0)
    _print_checks(checks)
    return 0


def cmd_coarse_chain(args) -> int:
    t0 = time.perf_counter()
    phi = fields.get_field(args.func, args.dim)
    w = parse_point(args.w, "w")
    m_values = parse_m_values(args.m)
    # the ranges that build_alpha_eps and build_psi_delta accept
    eps_values = parse_list(args.eps, "eps", float, lambda e: 0.0 < e <= 1.0, "values in (0, 1]")
    delta_values = parse_list(
        args.delta, "delta", float, lambda d: 0.0 <= d < math.inf, "finite values >= 0"
    )
    log_c_m = _parse_cm_rule(args.cm)

    # modulus of continuity at eps = 1/m and the resulting growth constants,
    # on the unit ball around w (skipped when the field is not continuous there)
    o_by_m, cprime_by_m = {}, {}
    try:
        region = DomainBox("ball", w, np.array([1.0]))
        o_by_m = {
            m: modulus_of_continuity(phi, region, 1.0 / m, resolution=17)
            for m in m_values
        }
        _, diag = coarse_constant_growth(
            m_values, [log_c_m(m) for m in m_values], args.p,
            lambda e: o_by_m.get(int(round(1.0 / e)), 0.0), n=args.dim,
        )
        cprime_by_m = {m: float(d) * m for m, d in zip(m_values, diag)}
    except PshlabError:
        pass

    rows = []
    all_ok = True
    for m in m_values:
        for eps in eps_values:
            for delta in delta_values:
                rep = coarse_rhs_bound(
                    phi, m, args.p, w, eps, delta, log_c_m(m),
                    grid_nodes=max(64, int(16 / eps) * 8),
                )
                rows.append(
                    [m, args.p, eps, delta, rep.rhs_integral, rep.bound,
                     rep.envelope_constant, rep.inf_phi,
                     o_by_m.get(m, ""), cprime_by_m.get(m, ""), rep.verified]
                )
                all_ok &= rep.verified
    if args.out:
        write_csv(
            args.out,
            ["m", "p", "eps", "delta", "rhs_integral", "bound", "C", "inf_phi",
             "o_eps_1_over_m", "log_cprime_m", "verified"],
            rows,
        )
    print(f"[{'PASS' if all_ok else 'FAIL'}] coarse-chain: {len(rows)} tuples verified")
    return 0 if all_ok else 1


def _parse_cm_rule(text: str):
    """The rule m -> log(C_m); logs keep fast-growing rules such as exp_sqrt finite."""
    base, _, raw = text.partition(":")
    if base == "exp_sqrt":
        return lambda m: math.sqrt(m)
    try:
        if base == "poly":
            k = float(raw or 2.0)
            return lambda m: k * math.log(m)
        c = float(raw or 1.0) if base == "const" else float(text)  # a bare number is a constant
    except ValueError:
        c = math.nan
    if not c > 0.0:
        raise ConfigError(
            f"invalid --cm rule {text!r} (a positive number, const:<c>, poly:<k>, or exp_sqrt)"
        )
    log_c = math.log(c)
    return lambda m: log_c


def _exp_or_inf(x: float) -> float:
    """e^x, or inf where that exceeds the double range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def cmd_extend(args) -> int:
    t0 = time.perf_counter()
    phi = fields.get_field(args.func, args.dim)
    center = parse_point(args.center, "center")
    cyl = parse_cylinder(args.cylinder, args.dim, center)
    rule = QuadratureRule("tensor-grid", args.budget, args.seed)
    checks = []
    if args.p == 2.0:
        f_star, value = best_extension_constant(phi, center, cyl, args.degree, rule)
        rep = optimal_extension_margin(phi, center, cyl, f_star, args.p, rule)
        checks.append(
            _check(
                "best-extension-constant",
                value <= rep.rhs * (1.0 + 1e-9),
                {"value": value, "threshold": rep.rhs, "degree": args.degree,
                 "scope": "cylinder-local"},
                {"inequality": "value <= e^{-phi(z0)}"},
            )
        )
    else:
        rep = optimal_extension_margin(phi, center, cyl, constant_one(center), args.p, rule)
    checks.append(
        _check(
            "optimal-extension-margin",
            rep.margin >= -1e-9,
            {"lhs": rep.lhs, "rhs": rep.rhs, "margin": rep.margin,
             "jensen_residual": rep.jensen_residual,
             "log_mean_residual": rep.log_mean_residual,
             "conclusion_margin": rep.conclusion_margin},
            {"margin": 0.0},
        )
    )
    write_report(args.out, "extend", vars(args), checks, t0)
    _print_checks(checks)
    return 0


def cmd_coarse_extend(args) -> int:
    t0 = time.perf_counter()
    phi = fields.get_field(args.func, args.dim)
    center = parse_point(args.center, "center")
    cyl = parse_cylinder(args.cylinder, args.dim, center)
    rule = QuadratureRule("tensor-grid", args.budget, args.seed)
    log_c_m = _parse_cm_rule(args.cm_rule)
    rows = []
    for m in parse_m_values(args.m):
        b_m, b_tilde = coarse_extension_bound(
            phi, center, cyl, constant_one(center), log_c_m(m), m, args.p, rule
        )
        rows.append([m, args.p, _exp_or_inf(log_c_m(m)), b_m, b_tilde])
    if args.out:
        write_csv(args.out, ["m", "p", "C_m", "b_m", "b_tilde_m"], rows)
    print(f"[PASS] coarse-extend: {len(rows)} bounds computed")
    return 0


def cmd_dbar(args) -> int:
    t0 = time.perf_counter()
    phi = fields.get_field(args.weight, 1)
    psi = _parse_psi(args.psi)
    rhs = _parse_rhs(args.rhs)
    grid = make_grid(unit_ball(1, radius=args.box), args.grid)
    result = hormander_ratio(phi, psi, rhs, args.degree, grid)
    checks = [
        _check(
            "dbar-solve",
            result.residual <= 5e-3,
            {
                "residual": result.residual,
                "minimal_norm_sq": result.minimal_norm_sq,
                "comparison_integral": result.comparison_integral,
                "ratio": result.ratio,
                "degree": result.degree,
            },
            {"residual": 5e-3},
        )
    ]
    write_report(args.out, "dbar", vars(args), checks, t0)
    return 0 if _print_checks(checks) else 1


def _parse_psi(text: str):
    base, _, raw = text.partition(":")
    if base == "psi_s":
        try:
            s, r = (float(v) for v in json.loads(raw))
        except (json.JSONDecodeError, ValueError, TypeError) as exc:
            raise ConfigError(f"invalid --psi (expected psi_s:[s,r]): {exc}") from exc
        return build_psi_s(np.zeros(1, dtype=complex), r, s)
    return fields.get_field(text, 1)


def _parse_rhs(text: str):
    if text == "dbar_bump":
        from .bochner import FormField01, bump_profile

        _, dzbar = bump_profile(np.zeros(1), 1.0, 1)
        return FormField01("dbar_bump", 1, (lambda z: dzbar(z, 0),), unit_ball(1))
    return get_form(text, 1)


def cmd_accept(args) -> int:
    t0 = time.perf_counter()
    records = run_suite(args.seed)
    for line in render_lines(records):
        print(line)
    checks = [
        {
            "name": rec.name,
            "passed": rec.passed and rec.seconds <= RUNTIME_LIMITS.get(rec.name, 1e9),
            "values": rec.values,
            "tolerances": rec.tolerances,
        }
        for rec in records
    ]
    timings = {rec.name: rec.seconds for rec in records}
    write_report(args.out, "accept", {"seed": args.seed}, checks, t0, timings=timings)
    return 0 if all(c["passed"] for c in checks) else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pshlab",
        description="Numerical verification and falsification of plurisubharmonicity "
        "via sub-mean-value scans, the Bochner-type identity, sharp/coarse "
        "estimate witnesses, and weighted extension inequalities.",
    )
    parser.add_argument("--version", action="version", version=f"pshlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("levi", help="Levi-form lower-bound scan over a region")
    p.add_argument("--func", required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--omega", default="zero")
    p.add_argument("--region", default=None, help="region JSON; default: unit ball of C^dim")
    p.add_argument("--resolution", type=int, default=9)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func_impl=cmd_levi)

    p = sub.add_parser("check-psh", help="randomized cylinder sub-mean-value scan")
    p.add_argument("--func", required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--region", default=None, help="region JSON; default: unit ball of C^dim")
    p.add_argument("--centers", type=int, default=100)
    p.add_argument("--cylinders", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func_impl=cmd_check_psh)

    p = sub.add_parser("bochner", help="verify the weighted energy identity")
    p.add_argument("--func", required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--form", default="bump_const")
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func_impl=cmd_bochner)

    p = sub.add_parser("witness", help="search a sharp-estimate falsification witness")
    p.add_argument("--func", required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--omega", default="zero")
    p.add_argument("--region", default=None, help="region JSON; default: unit ball of C^dim")
    p.add_argument("--smax", type=float, default=1e4)
    p.add_argument("--grid", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func_impl=cmd_witness)

    p = sub.add_parser("coarse-chain", help="verify the coarse-estimate bound chain")
    p.add_argument("--func", required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--m", default="1,2,4,8")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--cm", default="const:1")
    p.add_argument("--eps", default="0.5,0.25")
    p.add_argument("--delta", default="0.25,0.0625")
    p.add_argument("--w", default="[[0,0]]")
    p.add_argument("--out")
    p.set_defaults(func_impl=cmd_coarse_chain)

    p = sub.add_parser("extend", help="optimal extension margin / best constant")
    p.add_argument("--func", required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--center", default="[[0,0]]")
    p.add_argument("--cylinder", default="r=1.0,s=1.0,seed=0")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--degree", type=int, default=8)
    p.add_argument("--budget", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func_impl=cmd_extend)

    p = sub.add_parser("coarse-extend", help="coarse extension bound sweep")
    p.add_argument("--func", required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--m", default="1,2,4,8,16")
    p.add_argument("--cm-rule", dest="cm_rule", default="const:1")
    p.add_argument("--center", default="[[0,0]]")
    p.add_argument("--cylinder", default="r=1.0,s=1.0,seed=0")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--budget", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func_impl=cmd_coarse_extend)

    p = sub.add_parser("dbar", help="minimal-norm dbar solve and estimate ratio (n=1)")
    p.add_argument("--weight", required=True)
    p.add_argument("--psi", default="sq_norm")
    p.add_argument("--rhs", default="dbar_bump")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--degree", type=int, default=10)
    p.add_argument("--box", type=float, default=2.0)
    p.add_argument("--out")
    p.set_defaults(func_impl=cmd_dbar)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--out")
    p.set_defaults(func_impl=cmd_accept)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func_impl(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PshlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
