"""Job lists of the three workloads and the correctness gate for their outputs.

A job drives one public pshlab entry point with inputs made from the
benchmark seed.  Its timed part only calls the program; afterwards its output
is put in a canonical JSON form, which is hashed (to compare passes and traced
against untraced runs), summarised into verdict strings, counts, pass flags
and numeric values (to compare with the pins recorded at the seed commit),
and, for the violation scans, checked against closed-form margins.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("scan-clean", "scan-violating", "certificates")

# Every pass is a fresh interpreter that runs the job list once, cold, and
# run.py reports the median pass.  The job lists are sized so that a pass is
# short enough for several of them to fit in one run.

# scan-clean: the smooth and the harmonic weight of acceptance criterion 3, at
# its budgets and tolerance, 2 jobs x 10 centers x 10 cylinders per weight.
# The third psh weight of the criterion, max_log, is left out: quadrature noise
# at its kink makes 6-11 % of its cylinders candidates, so its time would hinge
# on the seed and the recheck paths this workload bypasses would run.
CLEAN_JOBS = 2
CLEAN_CENTERS = 10
CLEAN_CYLINDERS = 10
CLEAN_TOL = 1e-6

# scan-violating: check-psh at the CLI defaults (budget 65536 at n = 2, 4096 at
# n = 1) with the README tolerance.  Every candidate costs a 4x tensor recheck
# plus a 4x quasi-random cross-rule, so the number of candidates sets the
# time.  The n = 2 scans use one cylinder per center and as many centers as it
# takes to meet a fixed number of candidates, so that the recheck work, and
# with it the run time, does not depend on the seed.
VIOLATING_TOL = 1e-3
SADDLE_JOBS = 2
SADDLE_CANDIDATES = 2  # per job
CROSS_CANDIDATES = 2
NEG_SQ_CENTERS = 10  # every cylinder of -|z|^2 is a candidate: 100 per report
NEG_SQ_CYLINDERS = 10
# a candidate whose exact margin is this far below zero must be confirmed:
# the cross-rule noise floor of these quadratic weights is orders smaller
MUST_CONFIRM_MARGIN = -1e-2
ORACLE_RTOL = 1e-9

# lists with more entries than this are pinned by length only
PIN_LIST_LIMIT = 32

# Hermitian matrices Q of the quadratic weights phi(z) = z^H Q z
QUADRATIC_WEIGHTS = {
    "saddle:2": np.diag([1.0, -2.0]).astype(complex),
    "cross": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "neg_sq_norm": -np.eye(1, dtype=complex),
}


@dataclass
class Job:
    name: str
    call: Callable[[], object]  # the timed program call
    canonical: Callable[[object], object]  # raw result -> JSON-able output
    oracle: Optional[Callable[[object], list]] = None  # canonical -> problems


def job_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


# ---------------------------------------------------------------------------
# canonical outputs
# ---------------------------------------------------------------------------


def _scan_canonical(res) -> dict:
    return {
        "verdict": res.verdict,
        "cylinders_checked": res.cylinders_checked,
        "violations": [
            {"r": v.cylinder.r, "s": v.cylinder.s, "mean": v.mean,
             "margin": v.margin, "quad_error": v.quad_error}
            for v in res.violations
        ],
    }


def _criterion_canonical(record) -> dict:
    from pshlab.acceptance import payload_bytes

    return json.loads(payload_bytes([record]))[0]


def _json_report_canonical(path: str):
    def canonical(rc):
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        # the wall clock is the one field that may differ between identical runs
        report.pop("wall_clock_seconds", None)
        report["config"]["out"] = os.path.basename(report["config"]["out"])
        return {"rc": rc, "report": report}

    return canonical


def _cell(text: str):
    if text in ("True", "False"):
        return text == "True"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _csv_canonical(path: str):
    def canonical(rc):
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        return {"rc": rc, "header": rows[0], "rows": [[_cell(c) for c in r] for r in rows[1:]]}

    return canonical


def digest(output) -> str:
    data = json.dumps(output, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def summarize(output) -> dict:
    """Flatten an output into strings, counts (ints, list lengths), flags and values."""
    out = {"strings": {}, "counts": {}, "flags": {}, "values": {}}

    def walk(obj, path):
        if isinstance(obj, bool):
            out["flags"][path] = obj
        elif isinstance(obj, int):
            out["counts"][path] = obj
        elif isinstance(obj, float):
            out["values"][path] = obj
        elif obj is None or isinstance(obj, str):
            out["strings"][path] = obj
        elif isinstance(obj, dict):
            for key in sorted(obj):
                walk(obj[key], f"{path}/{key}")
        elif isinstance(obj, list):
            out["counts"][path + "#len"] = len(obj)
            if len(obj) <= PIN_LIST_LIMIT:
                for i, item in enumerate(obj):
                    walk(item, f"{path}/{i}")

    walk(output, "")
    return out


# ---------------------------------------------------------------------------
# closed-form oracle for scans of quadratic weights
# ---------------------------------------------------------------------------


def scan_draws(seed: int, n: int, centers: int, cylinders: int):
    """The cylinders a unit-ball scan draws, in the order classify_psh draws them.

    The quadratic weights are finite everywhere, so every first center draw is
    accepted.  Yields (r, s, frame_seed).
    """
    from pshlab.geometry import unit_ball

    region = unit_ball(n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for _ in range(centers):
        region.sample_uniform(rng, 1)
        for _ in range(cylinders):
            frame_seed = int(rng.integers(0, 2**63 - 1))
            r = float(rng.uniform(0.1, 0.5))
            s = float(rng.uniform(0.1, 0.5))
            yield r, s, frame_seed


def exact_margin(q: np.ndarray, r: float, s: float, frame_seed: int) -> float:
    """mean - phi(z0) of z^H Q z over z0 + A(P_{r,s}): (r^2 B_11 + s^2 B_22)/2, B = A^H Q A."""
    from pshlab.geometry import random_unitary

    n = q.shape[0]
    a = random_unitary(frame_seed, n) if n > 1 else np.eye(1, dtype=complex)
    b = a.conj().T @ q @ a
    margin = 0.5 * r * r * b[0, 0].real
    if n == 2:
        margin += 0.5 * s * s * b[1, 1].real
    return float(margin)


def _scan_oracle(expected: dict, tol: float):
    """Every reported violation is a real one, and every clear violation is reported."""

    def oracle(output) -> list:
        values = output["report"]["checks"][0]["values"]
        problems = []
        if values["cylinders_checked"] != len(expected):
            problems.append(f"cylinders_checked {values['cylinders_checked']} != {len(expected)}")
        reported = set()
        for v in values["violations"]:
            key = (v["r"], v["s"])
            if key not in expected:
                problems.append(f"violation at r={v['r']!r}, s={v['s']!r} matches no drawn cylinder")
                continue
            reported.add(key)
            exact = expected[key]
            if not exact < -tol / 2.0:
                problems.append(f"violation with exact margin {exact!r} >= -tol/2")
            if abs(v["margin"] - exact) > ORACLE_RTOL * max(1.0, abs(exact)):
                problems.append(f"margin {v['margin']!r} differs from exact {exact!r}")
        missed = [m for key, m in expected.items() if m < MUST_CONFIRM_MARGIN and key not in reported]
        if missed:
            problems.append(f"{len(missed)} clear violations not reported (worst {min(missed)!r})")
        return problems

    return oracle


def _size_scan(func: str, seed: int, n: int, candidates: int, tol: float):
    """Centers (one cylinder each) needed to meet the candidate target, and the exact margins."""
    q = QUADRATIC_WEIGHTS[func]
    expected = {}
    found = 0
    for r, s, frame_seed in scan_draws(seed, n, 100 * candidates, 1):
        m = exact_margin(q, r, s, frame_seed)
        expected[(r, s)] = m
        found += m < -tol
        if found == candidates:
            return len(expected), expected
    raise RuntimeError(f"{func}: fewer than {candidates} candidates in {len(expected)} draws")


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------


def _cli_job(name: str, argv: list, out: str, kind: str = "json", oracle=None) -> Job:
    from pshlab import cli

    argv = argv + ["--out", out]
    canonical = _json_report_canonical(out) if kind == "json" else _csv_canonical(out)
    return Job(name, lambda: cli.main(argv), canonical, oracle)


def scan_clean_jobs(seed: int, out_dir: str) -> list:
    from pshlab import fields
    from pshlab.geometry import unit_ball
    from pshlab import meanvalue

    corpus = (
        ("sq_norm", lambda: fields.sq_norm(2), unit_ball(2), 16384),
        ("log_abs", lambda: fields.log_abs(np.array([1.5 + 0.0j]), 1), unit_ball(1), 4096),
    )
    jobs = []
    for k, (name, make_phi, region, budget) in enumerate(corpus):
        phi = make_phi()
        for i in range(CLEAN_JOBS):
            def call(phi=phi, region=region, budget=budget, s=job_seed(seed, 10 * k + i)):
                return meanvalue.classify_psh(
                    phi, region, CLEAN_CENTERS, CLEAN_CYLINDERS, seed=s, tol=CLEAN_TOL, budget=budget
                )

            jobs.append(Job(f"classify_psh/{name}/{i}", call, _scan_canonical))
    return jobs


def scan_violating_jobs(seed: int, out_dir: str) -> list:
    jobs = []
    scans = [("saddle:2", 2, SADDLE_CANDIDATES)] * SADDLE_JOBS + [("cross", 2, CROSS_CANDIDATES)]
    for k, (func, n, target) in enumerate(scans):
        s = job_seed(seed, k)
        centers, expected = _size_scan(func, s, n, target, VIOLATING_TOL)
        argv = ["check-psh", "--func", func, "--dim", str(n), "--centers", str(centers),
                "--cylinders", "1", "--seed", str(s), "--tol", str(VIOLATING_TOL)]
        jobs.append(_cli_job(f"check-psh/{func}/{k}", argv, os.path.join(out_dir, f"scan-{k}.json"),
                             oracle=_scan_oracle(expected, VIOLATING_TOL)))
    s = job_seed(seed, len(scans))
    q = QUADRATIC_WEIGHTS["neg_sq_norm"]
    expected = {(r, sv): exact_margin(q, r, sv, fs)
                for r, sv, fs in scan_draws(s, 1, NEG_SQ_CENTERS, NEG_SQ_CYLINDERS)}
    argv = ["check-psh", "--func", "neg_sq_norm", "--dim", "1", "--centers", str(NEG_SQ_CENTERS),
            "--cylinders", str(NEG_SQ_CYLINDERS), "--seed", str(s), "--tol", str(VIOLATING_TOL)]
    jobs.append(_cli_job("check-psh/neg_sq_norm", argv, os.path.join(out_dir, "scan-neg.json"),
                         oracle=_scan_oracle(expected, VIOLATING_TOL)))
    return jobs


def certificates_jobs(seed: int, out_dir: str) -> list:
    """The grid criteria plus the README configurations of the grid subcommands.

    These are fixed configurations: the seed reaches the parameters that take
    one (criterion seeds, the extension rule seed and cylinder frame seed).
    """
    from pshlab import acceptance

    jobs = []
    for name in ("criterion_levi", "criterion_bochner", "criterion_witness",
                 "criterion_coarse_chain", "criterion_extension_chains",
                 "criterion_best_constant", "criterion_hormander_ratio"):
        # looked up at call time, so that a traced run calls the wrapper
        jobs.append(Job(f"acceptance/{name}",
                        lambda name=name: getattr(acceptance, name)(seed),
                        _criterion_canonical))
    cyl = f"r=1.0,s=1.0,seed={seed}"
    cli_examples = (
        ("witness", ["--func", "neg_sq_norm", "--dim", "1", "--smax", "1e4"], "json"),
        ("bochner", ["--func", "sq_norm", "--dim", "2", "--form", "bump_zbar2", "--grid", "24"], "json"),
        ("coarse-chain", ["--func", "re_linear", "--m", "1,2,4,8", "--p", "2", "--cm", "1"], "csv"),
        ("extend", ["--func", "neg_sq_norm", "--center", "[[0,0]]", "--cylinder", cyl,
                    "--p", "2", "--degree", "8", "--seed", str(seed)], "json"),
        ("coarse-extend", ["--func", "sq_norm", "--m", "1,2,4,8,16", "--cylinder", cyl,
                           "--seed", str(seed)], "csv"),
        ("dbar", ["--weight", "neg_sq_norm", "--psi", "psi_s:[1000, 0.5]", "--rhs", "dbar_nu",
                  "--grid", "256", "--degree", "10"], "json"),
        ("levi", ["--func", "saddle:2", "--dim", "2"], "json"),
    )
    for sub, argv, kind in cli_examples:
        out = os.path.join(out_dir, f"{sub}.{kind}")
        jobs.append(_cli_job(f"cli/{sub}", [sub] + argv, out, kind))
    return jobs


BUILDERS = {
    "scan-clean": scan_clean_jobs,
    "scan-violating": scan_violating_jobs,
    "certificates": certificates_jobs,
}


def build(workload: str, seed: int, out_dir: str) -> list:
    return BUILDERS[workload](seed, out_dir)


# ---------------------------------------------------------------------------
# pins
# ---------------------------------------------------------------------------


def invariant_pins(by_seed: dict) -> dict:
    """Summary entries that are the same at every pinned seed."""
    seeds = list(by_seed.values())
    if not seeds:
        return {}
    out = {}
    for job, first in seeds[0].items():
        out[job] = {}
        for part, entries in first.items():
            out[job][part] = {
                key: val for key, val in entries.items()
                if all(job in s and s[job][part].get(key, object()) == val for s in seeds[1:])
            }
    return out


def compare(summary: dict, pinned: dict):
    """Problems where strings, counts or flags differ from the pin, and the value drift."""
    problems = []
    for part in ("strings", "counts", "flags"):
        for key, want in pinned.get(part, {}).items():
            got = summary[part].get(key, "<missing>")
            if got != want:
                problems.append(f"{part}{key}: {got!r} != pinned {want!r}")
    drift = 0.0
    for key, want in pinned.get("values", {}).items():
        got = summary["values"].get(key)
        if got is None or want is None:
            continue
        if math.isinf(want) or math.isnan(want):
            d = 0.0 if (got == want or (math.isnan(got) and math.isnan(want))) else math.inf
        else:
            d = abs(got - want) / max(abs(want), 1e-300) if want else abs(got)
        drift = max(drift, d)
    return problems, drift
