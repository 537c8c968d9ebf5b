"""Outside-in tracing of pshlab: wrappers around the public functions of each module.

Every wrapped call is a span.  A span adds its inclusive time to `<name>.s`
and its self time (inclusive time minus that of the wrapped calls made inside
it) to `<name>.self_s`, counts itself in `<name>.calls`, and may add a work
count.  Wrappers are installed on every module attribute that binds the
function, because several modules import functions by name (meanvalue binds
sample_cylinder and random_unitary, acceptance the witness functions, cli
most entry points).  `errors` does no work and is not wrapped.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

SCANS = ("scan-clean", "scan-violating")
ALL = SCANS + ("certificates",)
CERT = ("certificates",)

_RULE_KINDS = {"tensor-grid": "tensor", "quasi-random": "quasi_random", "random": "random"}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _sample_name(args, kwargs):
    rule = _arg(args, kwargs, 1, "rule")
    return "geometry.sample_cylinder." + _RULE_KINDS[rule.kind]


def _add(key, amount):
    def count(stats, name, result, args, kwargs):
        stats[f"{name}.{key}"] += amount(result, args, kwargs)

    return count


def _count_scan(stats, name, result, args, kwargs):
    stats[name + ".cylinders"] += result.cylinders_checked
    stats[name + ".confirmed"] += len(result.violations)


def _count_report_bytes(stats, name, result, args, kwargs):
    """Bytes written, less the wall-clock value, whose printed length varies from run to run."""
    path = _arg(args, kwargs, 0, "path")
    if path:
        stats[name + ".bytes"] += os.path.getsize(path) - len(json.dumps(result["wall_clock_seconds"]))


# (module, attribute or Class.method, span name or namer, work counter)
TARGETS = (
    ("geometry", "sample_cylinder", _sample_name,
     _add("nodes", lambda res, a, k: len(res.weights))),
    ("geometry", "random_unitary", "geometry.random_unitary", None),
    ("fields", "ScalarField.__call__", "fields.eval", _add("points", lambda res, a, k: len(res))),
    ("fields", "levi_form", "fields.levi_form", None),
    ("fields", "check_lower_bound", "fields.check_lower_bound", None),
    ("meanvalue", "classify_psh", "meanvalue.classify_psh", _count_scan),
    ("meanvalue", "submean_test", "meanvalue.submean_test", None),
    ("meanvalue", "clipped_mean", "meanvalue.clipped_mean",
     _add("nonfinite_calls", lambda res, a, k: int(not np.all(np.isfinite(_arg(a, k, 0, "values")))))),
    ("bochner", "GridDiscretization.partial", "bochner.partial",
     _add("elements", lambda res, a, k: np.size(_arg(a, k, 1, "values")))),
    ("bochner", "make_grid", "bochner.make_grid",
     _add("points", lambda res, a, k: res.points.shape[0])),
    ("bochner", "FormField01.evaluate", "bochner.form_evaluate", None),
    ("bochner", "bochner_residual", "bochner.bochner_residual", None),
    ("bochner", "dbar_star", "bochner.dbar_star", None),
    ("bochner", "dbar_01", "bochner.dbar_01", None),
    ("witness", "scan_sharp_witness", "witness.scan_sharp_witness", None),
    ("witness", "estimate_functional_E", "witness.estimate_functional_E",
     _add("points", lambda res, a, k: _arg(a, k, 4, "grid").points.shape[0])),
    ("witness", "coarse_rhs_bound", "witness.coarse_rhs_bound", None),
    ("extension", "best_extension_constant", "extension.best_extension_constant", None),
    ("extension", "optimal_extension_margin", "extension.optimal_extension_margin", None),
    ("extension", "jensen_chain_check", "extension.jensen_chain_check", None),
    ("extension", "coarse_extension_bound", "extension.coarse_extension_bound", None),
    ("dbar1d", "cauchy_transform", "dbar1d.cauchy_transform",
     _add("points", lambda res, a, k: np.size(_arg(a, k, 0, "f_values")))),
    ("dbar1d", "weighted_bergman_projection", "dbar1d.weighted_bergman_projection", None),
    ("dbar1d", "hormander_ratio", "dbar1d.hormander_ratio", None),
    ("cli", "main", "cli.main", None),
    ("cli", "write_report", "cli.write_report", _count_report_bytes),
) + tuple(
    ("acceptance", crit, f"acceptance.{crit}", None)
    for crit in ("criterion_levi", "criterion_bochner", "criterion_witness",
                 "criterion_coarse_chain", "criterion_extension_chains",
                 "criterion_best_constant", "criterion_hormander_ratio")
)


def _span(name, stats_keys, on, idle=()):
    return [(f"{name}.{k}", unit, on, idle) for k, unit in stats_keys]


_CALLS_SELF = (("calls", "count"), ("self_s", "s"))

# (metric, unit, workloads where it must be non-zero, workloads where it must be zero)
PER_LAYER = (
    _span("geometry.sample_cylinder.tensor", (("calls", "count"), ("nodes", "count"), ("self_s", "s")), ALL)
    + _span("geometry.sample_cylinder.quasi_random",
            (("calls", "count"), ("nodes", "count"), ("self_s", "s")), ("scan-violating",),
            ("scan-clean", "certificates"))
    + _span("geometry.random_unitary", _CALLS_SELF, SCANS, CERT)
    + _span("fields.eval", (("calls", "count"), ("points", "count"), ("self_s", "s")), ALL)
    + _span("fields.levi_form", _CALLS_SELF, CERT, SCANS)
    + _span("fields.check_lower_bound", _CALLS_SELF, CERT, SCANS)
    + _span("meanvalue.classify_psh", (("cylinders", "count"), ("self_s", "s")), SCANS, CERT)
    + _span("meanvalue.classify_psh", (("candidates", "count"), ("confirmed", "count")),
            ("scan-violating",), ("scan-clean", "certificates"))
    + [("meanvalue.confirm_ratio", "ratio", ("scan-violating",), ("scan-clean", "certificates")),
       ("meanvalue.nodes_per_cylinder", "count", SCANS, CERT),
       ("meanvalue.cylinders_per_s", "1/s", SCANS, CERT)]
    + _span("meanvalue.submean_test", _CALLS_SELF, SCANS, CERT)
    # extension's Jensen chain and coarse bounds also take clipped means
    + _span("meanvalue.clipped_mean", _CALLS_SELF, ALL)
    # no workload's weight reaches its pole set at a quadrature node
    + _span("meanvalue.clipped_mean", (("nonfinite_calls", "count"),), (), ALL)
    + _span("bochner.partial", (("calls", "count"), ("elements", "count"), ("self_s", "s")), CERT, SCANS)
    + [m for f in ("make_grid", "form_evaluate", "bochner_residual", "dbar_star", "dbar_01")
       for m in _span(f"bochner.{f}", _CALLS_SELF, CERT, SCANS)]
    + _span("bochner.make_grid", (("points", "count"),), CERT, SCANS)
    + _span("witness.scan_sharp_witness", _CALLS_SELF, CERT, SCANS)
    + _span("witness.estimate_functional_E", (("calls", "count"), ("points", "count"), ("self_s", "s")),
            CERT, SCANS)
    + _span("witness.coarse_rhs_bound", _CALLS_SELF, CERT, SCANS)
    + [m for f in ("best_extension_constant", "optimal_extension_margin", "jensen_chain_check",
                   "coarse_extension_bound")
       for m in _span(f"extension.{f}", _CALLS_SELF, CERT, SCANS)]
    + [m for f in ("cauchy_transform", "weighted_bergman_projection", "hormander_ratio")
       for m in _span(f"dbar1d.{f}", _CALLS_SELF, CERT, SCANS)]
    + _span("dbar1d.cauchy_transform", (("points", "count"),), CERT, SCANS)
    + [(f"{name}.s", "s", CERT, SCANS) for mod, _, name, _ in TARGETS if mod == "acceptance"]
    + _span("cli.main", _CALLS_SELF, ("scan-violating", "certificates"), ("scan-clean",))
    + _span("cli.write_report", (("calls", "count"), ("bytes", "B"), ("self_s", "s")),
            ("scan-violating", "certificates"), ("scan-clean",))
    + [("trace.overhead", "ratio", (), ())]
)


# metrics that run.py computes from the job times of all passes
CROSS_PASS = ("meanvalue.cylinders_per_s", "trace.overhead")


class Tracer:
    """Span and counter store; `install` replaces the targets by timing wrappers."""

    def __init__(self):
        self.stats = defaultdict(float)
        self._inner = []  # inclusive time of wrapped calls inside each open span

    def wrap(self, fn, name, count):
        stats, inner = self.stats, self._inner

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            inner.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = inner.pop()
                if inner:
                    inner[-1] += dt
                stats[label + ".calls"] += 1
                stats[label + ".s"] += dt
                stats[label + ".self_s"] += dt - child
            if count is not None:
                count(stats, label, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "pshlab" or key.startswith("pshlab.")]
        for modname, attr, name, count in TARGETS:
            mod = importlib.import_module("pshlab." + modname)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, method, self.wrap(getattr(cls, method), name, count))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(original, name, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def metrics(self) -> dict:
        """The PER_LAYER metrics that the spans of one pass determine."""
        st = self.stats
        cylinders = st["meanvalue.classify_psh.cylinders"]
        candidates = (st["meanvalue.submean_test.calls"] - cylinders) / 2.0
        nodes = st["geometry.sample_cylinder.tensor.nodes"] + st["geometry.sample_cylinder.quasi_random.nodes"]
        derived = {
            "meanvalue.classify_psh.candidates": candidates,
            "meanvalue.confirm_ratio": st["meanvalue.classify_psh.confirmed"] / candidates if candidates else 0.0,
            "meanvalue.nodes_per_cylinder": nodes / cylinders if cylinders else 0.0,
        }
        out = {}
        for metric, unit, _, _ in PER_LAYER:
            if metric in CROSS_PASS:
                continue
            value = derived[metric] if metric in derived else st.get(metric, 0.0)
            out[metric] = int(value) if unit in ("count", "B") and float(value).is_integer() else value
        return out


def scan_cylinders(summary: dict) -> int:
    """Cylinders checked by a scan job, from its output summary (0 for other jobs)."""
    counts = summary["counts"]
    return counts.get("/cylinders_checked", counts.get("/report/checks/0/values/cylinders_checked", 0))


def self_check(workload: str, metrics: dict) -> list:
    """Problems where an 'on' metric is zero or an 'idle' metric is non-zero."""
    problems = []
    for metric, _, on, idle in PER_LAYER:
        value = metrics.get(metric, 0)
        if workload in on and not value:
            problems.append(f"{metric} is zero on {workload}, where it should be busy")
        if workload in idle and value:
            problems.append(f"{metric} is {value!r} on {workload}, where it should be idle")
    return problems
