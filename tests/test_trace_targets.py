"""The benchmark's tracer wraps pshlab functions by name: every name it lists
must exist, or a traced run breaks (or silently counts nothing)."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    missing = []
    for modname, attr, _, _ in load_tracing().TARGETS:
        obj = importlib.import_module("pshlab." + modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"pshlab.{modname}.{attr}")
    assert missing == []
