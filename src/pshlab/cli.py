"""Command-line front end: one table of subcommands, one runner, JSON/CSV reports.

Subcommands: levi, check-psh, bochner, witness, coarse-chain, extend,
coarse-extend, dbar, accept.  Each is a row of COMMANDS: its options, a
compute function from the parsed arguments to check records (a JSON report)
or a Table (a CSV sweep), and an exit policy.  The runner checks the option
bounds, parses the specs, echoes effective defaults, writes the report and
maps the outcome to an exit code.  Reports are schema-versioned JSON written
atomically; all emitted floats round-trip exactly (shortest repr of the double).
The toolkit is reached through its modules (bochner.make_grid, not make_grid);
only the errors classes and __version__ are imported by name.
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
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from . import acceptance, bochner, dbar1d, extension, fields, geometry, meanvalue, witness
from .errors import ContinuityRequiredError, InsufficientNodesError, PshlabError, SpecError

SCHEMA_VERSION = 1


class ConfigError(PshlabError):
    """A CLI value failed to parse; the message names the offending field."""


def parse_point(text: str, field_name: str, n: int) -> np.ndarray:
    """Points of C^n are JSON arrays of n [re, im] pairs."""
    try:
        return fields.parse_point(json.loads(text), n)
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid --{field_name}: {exc}") from exc


def _const_rule(c: float):
    """The C_m rule m -> log(c), for c > 0."""
    if not c > 0.0:
        raise ValueError("C_m must be positive")
    log_c = math.log(c)
    return lambda m: log_c


def _psi_s_param(param, n) -> tuple:
    """(r, s) of psi_s's parameter [s, r], which it must have."""
    if param is None:
        raise ValueError("psi_s takes the parameter [s, r]")
    s, r = map(fields.finite, param)
    return r, s


# C_m rules m -> log(C_m); logs keep fast-growing rules such as exp_sqrt finite
CM_RULES = {
    "const": (fields.number(1.0), lambda c, n: _const_rule(c)),
    "poly": (fields.number(2.0), lambda k, n: lambda m: k * math.log(m)),
    "exp_sqrt": (None, lambda n: math.sqrt),
}
# id -> (parameter parser, builder), as fields.FIELDS
FORMS = {
    "bump_const": (fields.point(fields.first_axis), lambda xi, n: bochner.bump_const_form(xi)),
    "bump_zbar2": (None, bochner.bump_zbar_form),
    "dbar_nu": (None, lambda n: witness.build_witness_form(
        fields.origin(n), fields.first_axis(n), 1.0)),
}
PSI = {**fields.FIELDS,
       "psi_s": (_psi_s_param, lambda rs, n: witness.build_psi_s(fields.origin(n), *rs))}
RHS = {**FORMS, "dbar_bump": (None, lambda n: dbar1d.dbar_bump())}


def resolve_cm_rule(spec: str, n):
    """The rule m -> log(C_m) of a C_m spec, which has no dimension n; a bare number c
    is shorthand for const:c."""
    try:
        spec = f"const:{json.dumps(float(spec))}"
    except ValueError:
        pass
    return fields.resolve(CM_RULES, "C_m rule", spec, None)


# spec option -> (keyword of the compute functions, resolver (spec, n) -> object)
SPECS = {
    "func": ("phi", fields.get_field),
    "weight": ("phi", fields.get_field),
    "psi": ("psi", partial(fields.resolve, PSI, "field")),
    "omega": ("omega", fields.get_omega),
    "form": ("alpha", partial(fields.resolve, FORMS, "form")),
    "rhs": ("rhs", partial(fields.resolve, RHS, "form")),
    "cm": ("log_c_m", resolve_cm_rule),
    "cm-rule": ("log_c_m", resolve_cm_rule),
}


def resolve_spec(option: str, text: str, n):
    """A spec option "id" or "id:<JSON>" resolved for dimension n; any SpecError
    becomes a ConfigError naming the option and the spec."""
    try:
        return SPECS[option][1](text, n)
    except SpecError as exc:
        raise ConfigError(f"invalid --{option} {text!r}: {exc}") from exc


def parse_cylinder(text: str, n: int, center: np.ndarray):
    """Cylinder spec string: "r=<f>,s=<f>,seed=<u64>"."""
    parts = {}
    try:
        for chunk in text.split(","):
            key, _, raw = chunk.partition("=")
            key = key.strip()
            if key not in ("r", "s", "seed"):
                raise ValueError(f"unknown key {key!r}")
            parts[key] = raw.strip()
        seed = int(parts.get("seed", "0"))
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed {seed} is outside [0, 2^64)")
        return geometry.HolomorphicCylinder(
            center, geometry.seeded_frame(seed, n), float(parts["r"]), float(parts.get("s", "1.0")))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid --cylinder (expected r=<f>,s=<f>,seed=<u64>): {exc}") from exc


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


def check_number(value: float, field_name: str, valid, expected: str) -> float:
    """A finite numeric option accepted by valid, else a ConfigError naming it."""
    if not (math.isfinite(value) and valid(value)):
        raise ConfigError(f"invalid --{field_name} {value!r} (expected {expected})")
    return value


def parse_region(text: str, n: int) -> geometry.DomainBox:
    """Region JSON: {"kind": "ball"|"polydisc"|"box", "center": [[re,im],...],
    "radius": f} (ball) or {"extents": [...]} otherwise, centered in C^n."""
    try:
        obj = json.loads(text)
        kind = obj["kind"]
        center = fields.parse_point(obj["center"], n)
        if kind == "ball":
            extents = np.array([float(obj["radius"])])
        else:
            extents = np.asarray(obj["extents"], dtype=float)
        known = {"kind", "center", "radius", "extents"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        return geometry.DomainBox(kind, center, extents)
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid --region: {exc}") from exc


def _atomic_write(path: str, data: str) -> None:
    """Write through a temporary file in the target directory; an OSError names --out."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pshlab-")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"invalid --out {path!r} ({exc.strerror or exc})") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def write_report(
    path: Optional[str], command: str, config: dict, checks: list, t0: float, **extra
):
    """Write the JSON report when path is set and return it; extra adds top-level sections."""
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
    text = json.dumps(report, indent=2, sort_keys=True, default=acceptance.json_default)
    if path:
        _atomic_write(path, text + "\n")
    return report


def write_csv(path: str, header: list, rows: list) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        row = [v.value if isinstance(v, fields.Scaled) else v for v in row]
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    _atomic_write(path, buf.getvalue())


class Table(NamedTuple):
    """A CSV sweep and its one-line summary."""

    header: list
    rows: list
    passed: bool
    summary: str


# ---------------------------------------------------------------------------
# compute functions: (args, **specs) -> [CheckRecord] or Table.  They reach the
# toolkit through its modules (witness.scan_sharp_witness, ...), so a function has
# one binding, its module's, which is where tracers and tests patch.
# ---------------------------------------------------------------------------


def _levi(args, phi, omega, region) -> list:
    verdict = fields.check_lower_bound(phi, omega, region, args.resolution, args.tol)
    values = {"holds": verdict.holds, "lambda_min": verdict.lambda_min, "c": verdict.c}
    if verdict.z0 is not None:
        values["z0"] = verdict.z0
        values["xi"] = verdict.xi
    return [acceptance.CheckRecord("levi-lower-bound", verdict.holds, values, {"tol": args.tol})]


def _check_psh(args, phi, region) -> list:
    res = meanvalue.classify_psh(
        phi, region, args.centers, args.cylinders, args.seed,
        tol=args.tol, budget=args.budget,
    )
    violations = [
        {
            "center": rep.cylinder.center,
            "frame": rep.cylinder.frame.ravel(),
            "r": rep.cylinder.r,
            "s": rep.cylinder.s,
            "mean": rep.mean,
            "margin": rep.margin,
            "quad_error": rep.quad_error,
        }
        for rep in res.violations
    ]
    values = {
        "verdict": res.verdict,
        "cylinders_checked": res.cylinders_checked,
        "violations": violations,
    }
    return [
        acceptance.CheckRecord(
            "sub-mean-value-scan", res.verdict == "no-violation-found", values,
            {"margin_tol": args.tol},
        )
    ]


def _bochner(args, phi, alpha) -> list:
    # inflate the box until the support margin accommodates the FD stencil
    radius = float(alpha.support.extents[0])
    pad = 10.0 * radius / max(args.grid - 11, 1)
    grid = bochner.make_grid(
        geometry.DomainBox("ball", alpha.support.center, np.array([radius + pad])), args.grid
    )
    [rep] = bochner.bochner_residual(alpha, [phi], grid)
    tol = bochner.residual_gate(args.dim)
    values = {
        "lhs": rep.lhs, "rhs": rep.rhs, "residual": rep.residual,
        "curvature_term": rep.terms[0], "gradient_term": rep.terms[1],
        "dbar_term": rep.terms[2], "adjoint_term": rep.terms[3],
    }
    # lhs = 0 means every support node sits where the form vanishes: nothing was tested
    passed = rep.lhs.sign > 0 and rep.residual <= tol
    return [acceptance.CheckRecord("bochner-identity", passed, values, {"residual": tol})]


def _witness(args, phi, omega, region) -> list:
    scan = witness.scan_sharp_witness(phi, omega, region, args.smax, args.grid)
    if scan.certificate is None:
        # no certificate passes only when the Levi form dominates omega; when
        # it does not, no s of the schedule made the sign functional negative
        holds = scan.levi_lower_bound_holds
        passed, values = holds, {"certificate": None, "levi_lower_bound_holds": holds}
    else:
        passed = scan.certificate.E.sign < 0
        values = {"certificate": asdict(scan.certificate)}
    return [acceptance.CheckRecord("sharp-witness", passed, values, {"smax": args.smax})]


def _coarse_chain(args, phi, w, log_c_m) -> Table:
    m_values = parse_m_values(args.m)
    # the ranges that build_alpha_eps and build_psi_delta accept
    eps_values = parse_list(args.eps, "eps", float, lambda e: 0.0 < e <= 1.0, "values in (0, 1]")
    delta_values = parse_list(
        args.delta, "delta", float, lambda d: 0.0 <= d < math.inf, "finite values >= 0"
    )
    nodes = witness.annulus_grid_nodes(args.dim)  # before the modulus scans the region

    # modulus of continuity at eps = 1/m and the resulting growth constants, on the
    # unit ball around w; blank for an m where the field is not continuous there or
    # 1/m is below the region grid's spacing
    region = geometry.DomainBox("ball", w, np.array([1.0]))
    o_by_m = {}
    for m in m_values:
        try:
            o_by_m[m] = witness.modulus_of_continuity(phi, region, 1.0 / m, resolution=17)
        except (ContinuityRequiredError, InsufficientNodesError):
            pass
    resolved = list(o_by_m)
    log_cprime, _ = witness.coarse_constant_growth(
        resolved, [log_c_m(m) for m in resolved], args.p, [o_by_m[m] for m in resolved],
        n=args.dim)
    cprime_by_m = {m: float(c) for m, c in zip(resolved, log_cprime)}

    reports = witness.coarse_rhs_bound(
        phi, args.p, w, [(e, nodes) for e in eps_values], delta_values,
        [(m, log_c_m(m)) for m in m_values])
    rows = [
        [rep.m, args.p, rep.eps, rep.delta, rep.rhs_integral, rep.bound, rep.envelope_constant,
         rep.inf_phi, o_by_m.get(rep.m, ""), cprime_by_m.get(rep.m, ""), rep.verified]
        for rep in reports
    ]
    verified = sum(rep.verified for rep in reports)
    header = ["m", "p", "eps", "delta", "rhs_integral", "bound", "C", "inf_phi",
              "o_eps_1_over_m", "log_cprime_m", "verified"]
    return Table(header, rows, verified == len(rows), f"{verified}/{len(rows)} tuples verified")


def _extend(args, phi, cyl) -> list:
    rule = geometry.QuadratureRule("tensor-grid", args.budget)
    checks = []  # each side <= e^{-phi(z0)} up to the relative VERDICT_SLACK (Scaled.at_most)
    if args.p == 2.0:
        f_star, value = extension.best_extension_constant(phi, cyl, args.degree, rule)
        rep = extension.optimal_extension_margin(phi, cyl, f_star, args.p, rule)
        checks.append(
            acceptance.CheckRecord(
                "best-extension-constant",
                value.at_most(rep.rhs),
                {"value": value, "threshold": rep.rhs, "degree": args.degree,
                 "scope": "cylinder-local"},
                {"inequality": "value <= e^{-phi(z0)}", "relative": fields.VERDICT_SLACK},
            )
        )
    else:
        rep = extension.optimal_extension_margin(
            phi, cyl, extension.constant_one(cyl.center), args.p, rule)
    checks.append(
        acceptance.CheckRecord(
            "optimal-extension-margin",
            rep.lhs.at_most(rep.rhs),
            {"lhs": rep.lhs, "rhs": rep.rhs, "margin": rep.margin,
             "jensen_residual": rep.jensen_residual,
             "log_mean_residual": rep.log_mean_residual,
             "conclusion_margin": rep.conclusion_margin},
            {"inequality": "lhs <= rhs", "relative": fields.VERDICT_SLACK},
        )
    )
    return checks


def _coarse_extend(args, phi, cyl, log_c_m) -> Table:
    rule = geometry.QuadratureRule("tensor-grid", args.budget)
    rows = []
    for m in parse_m_values(args.m):
        b_m, b_tilde = extension.coarse_extension_bound(
            phi, cyl, extension.constant_one(cyl.center), log_c_m(m), m, args.p, rule
        )
        rows.append([m, args.p, fields.Scaled(1.0, log_c_m(m)), b_m, b_tilde])
    return Table(["m", "p", "C_m", "b_m", "b_tilde_m"], rows, True, f"{len(rows)} bounds computed")


def _dbar(args, phi, psi, rhs) -> list:
    grid = bochner.make_grid(geometry.unit_ball(1, radius=args.box), args.grid)
    [result] = dbar1d.hormander_ratio([(phi, psi)], rhs, args.degree, grid)
    values = {
        "residual": result.residual,
        "minimal_norm_sq": result.norms[0],
        "comparison_integral": result.norms[1],
        "ratio": result.ratio,
        "degree": args.degree,
    }
    gate = dbar1d.RESIDUAL_GATE
    return [acceptance.CheckRecord(
        "dbar-solve", result.residual <= gate, values, {"residual": gate})]


def _accept(args) -> list:
    records = acceptance.run_suite(args.seed)
    for line in acceptance.render_lines(records):
        print(line)
    return records


# ---------------------------------------------------------------------------
# exit policies, report configurations and the table
# ---------------------------------------------------------------------------


def _print_checks(checks: list) -> bool:
    all_ok = True
    for chk in checks:
        print(f"[{'PASS' if chk.passed else 'FAIL'}] {chk.name}")
        all_ok &= chk.passed
    return all_ok


def _exit_on_failure(checks: list) -> int:
    return 0 if _print_checks(checks) else 1


def _exit_zero(checks: list) -> int:
    """A found violation is a successful falsification, not a tool failure."""
    _print_checks(checks)
    return 0


def _exit_on_suite_failure(checks: list) -> int:
    """The suite printed its own lines."""
    return 0 if all(chk.passed for chk in checks) else 1


def _echo_options(args, checks: list) -> tuple:
    """(config, extra report sections): every option with its effective value."""
    return {k: v for k, v in vars(args).items() if k != "command"}, {}


def _suite_report(args, checks: list) -> tuple:
    return {"seed": args.seed}, {"timings": {chk.name: chk.seconds for chk in checks}}


def _unit_ball_spec(args) -> str:
    return json.dumps({"kind": "ball", "center": [[0.0, 0.0]] * args.dim, "radius": 1.0})


# An option entry is (name, default) or (name, default, effective), where
# effective(args) replaces a value equal to the default; a bare name is a
# required option.  An option takes the type of its default unless OPTIONS
# gives its add_argument keywords, by (subcommand, name) or else by name.
_RULE_SEED = {"type": int, "help": "no effect (the tensor-grid rule takes no seed; the frame "
              "seed is seed= of --cylinder); kept because existing command lines pass it"}
OPTIONS = {
    "func": {"required": True},
    "weight": {"required": True},
    "region": {"help": "region JSON; default: unit ball of C^dim"},
    "budget": {"type": int},
    "grid": {"type": int},
    ("extend", "seed"): _RULE_SEED,
    ("coarse-extend", "seed"): _RULE_SEED,
}

_COUNT = (lambda v: v >= 1, "an integer >= 1")

# (valid, expected) of the numeric options; a value outside is a ConfigError
BOUNDS = {
    "dim": _COUNT,
    "resolution": _COUNT,
    "centers": _COUNT,
    "cylinders": _COUNT,
    "degree": (lambda v: v >= 0, "an integer >= 0"),
    "tol": (lambda v: v >= 0.0, "a finite number >= 0"),
    "seed": (lambda v: v >= 0, "an integer >= 0"),
    "box": (lambda v: v > 0.0, "a finite number > 0"),
    # the fewest grid nodes per axis that GridDiscretization takes, and cylinder rule nodes
    "grid": (lambda v: v >= bochner.MIN_GRID_NODES, f"an integer >= {bochner.MIN_GRID_NODES}"),
    "budget": (lambda v: v >= 16, "an integer >= 16"),
    "p": (lambda v: v > 0.0, "a finite positive exponent"),
    # the s-schedule runs from S_FIRST up to smax, so it would be empty for a smaller smax
    "smax": (lambda v: v >= witness.S_FIRST, f"a finite number >= {witness.S_FIRST:g}"),
}

FIELD = ("func", ("dim", 1))
REGION = ("region", None, _unit_ball_spec)
P = ("p", 2.0)
CYLINDER = (("center", "[[0,0]]"), ("cylinder", "r=1.0,s=1.0,seed=0"))
RULE = (("budget", 4096), ("seed", 0))


@dataclass(frozen=True)
class Command:
    name: str
    help: str
    options: tuple
    compute: Callable  # (args, **specs) -> [CheckRecord] for a JSON report, or a Table
    exit: Callable = _exit_on_failure  # prints the checks, returns the exit code
    report: Callable = _echo_options  # (args, checks) -> (config, extra sections)


COMMANDS = {
    cmd.name: cmd
    for cmd in (
        Command("levi", "Levi-form lower-bound scan over a region",
                (*FIELD, ("omega", "zero"), REGION, ("resolution", fields.REGION_RESOLUTION),
                 ("tol", fields.LEVI_TOL)), _levi),
        Command("check-psh", "randomized cylinder sub-mean-value scan",
                (*FIELD, REGION, ("centers", 100), ("cylinders", 10), ("seed", 0),
                 ("tol", meanvalue.DEFAULT_MARGIN_TOL),
                 ("budget", None, lambda a: geometry.DEFAULT_BUDGET.get(a.dim, 4096))),
                _check_psh, _exit_zero),
        Command("bochner", "verify the weighted energy identity",
                (*FIELD, ("form", "bump_const"),
                 ("grid", None, lambda a: bochner.default_grid_nodes(a.dim))), _bochner),
        Command("witness", "search a sharp-estimate falsification witness",
                (*FIELD, ("omega", "zero"), REGION, ("smax", witness.S_MAX),
                 ("grid", None, lambda a: witness.default_grid_nodes(a.dim))), _witness),
        Command("coarse-chain", "verify the coarse-estimate bound chain",
                (*FIELD, ("m", "1,2,4,8"), P, ("cm", "const:1"), ("eps", "0.5,0.25"),
                 ("delta", "0.25,0.0625"), ("w", "[[0,0]]")), _coarse_chain),
        Command("extend", "optimal extension margin / best constant",
                (*FIELD, *CYLINDER, P, ("degree", 8), *RULE), _extend, _exit_zero),
        Command("coarse-extend", "coarse extension bound sweep",
                (*FIELD, ("m", "1,2,4,8,16"), ("cm-rule", "const:1"), *CYLINDER, P, *RULE),
                _coarse_extend),
        Command("dbar", "minimal-norm dbar solve and estimate ratio (n=1)",
                ("weight", ("psi", "sq_norm"), ("rhs", "dbar_bump"), ("grid", 256),
                 ("degree", 10), ("box", 2.0)), _dbar),
        Command("accept", "run the acceptance suite", (("seed", 2024),), _accept,
                _exit_on_suite_failure, _suite_report),
    )
}


def _entries(cmd: Command):
    """(name, default, effective or None) of each option of a row."""
    for entry in cmd.options:
        if isinstance(entry, str):
            entry = (entry, None)
        yield (*entry, None)[:3]


def _check_bounds(args, names) -> None:
    for name in names:
        if name in BOUNDS and name in args:
            valid, expected = BOUNDS[name]
            check_number(getattr(args, name), name, valid, expected)


def _parse_specs(args) -> dict:
    """The spec options, parsed in one fixed order, so that the first bad one is reported.
    They take the dimension --dim, or 1 in a subcommand without it (dbar is n = 1)."""
    n = getattr(args, "dim", 1)
    specs = {key: resolve_spec(option, getattr(args, option.replace("-", "_")), n)
             for option, (key, _) in SPECS.items() if option.replace("-", "_") in args}
    if "region" in args:
        specs["region"] = parse_region(args.region, args.dim)
    if "w" in args:
        specs["w"] = parse_point(args.w, "w", args.dim)
    if "center" in args:
        specs["cyl"] = parse_cylinder(
            args.cylinder, args.dim, parse_point(args.center, "center", args.dim))
    return specs


def _run(cmd: Command, args) -> int:
    t0 = time.perf_counter()
    entries = list(_entries(cmd))
    _check_bounds(args, ["dim"])  # the specs and the effective defaults read it
    for name, default, effective in entries:
        if effective is not None and getattr(args, name) == default:
            setattr(args, name, effective(args))  # echoed, so reports carry every knob
    specs = _parse_specs(args)
    _check_bounds(args, [name for name, _, _ in entries if name != "dim"])
    result = cmd.compute(args, **specs)
    if isinstance(result, Table):
        if args.out:
            write_csv(args.out, result.header, result.rows)
        print(f"[{'PASS' if result.passed else 'FAIL'}] {cmd.name}: {result.summary}")
        return 0 if result.passed else 1
    config, extra = cmd.report(args, result)
    write_report(args.out, cmd.name, config, [chk.payload() for chk in result], t0, **extra)
    return cmd.exit(result)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pshlab",
        description="Numerical verification and falsification of plurisubharmonicity "
        "via sub-mean-value scans, the Bochner-type identity, sharp/coarse "
        "estimate witnesses, and weighted extension inequalities.",
    )
    parser.add_argument("--version", action="version", version=f"pshlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS.values():
        p = sub.add_parser(cmd.name, help=cmd.help)
        for name, default, _ in _entries(cmd):
            kwargs = OPTIONS.get((cmd.name, name)) or OPTIONS.get(name, {"type": type(default)})
            p.add_argument("--" + name, default=default, **kwargs)
        p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(COMMANDS[args.command], args)
    except (PshlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
