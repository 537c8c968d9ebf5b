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


def test_criterion_2_case_reaches_the_traced_grid_names(monkeypatch):
    """bochner_residual calls GridDiscretization.partial, bochner.dbar_01 and
    bochner.dbar_star through the attributes that the tracer replaces, and
    passes partial the whole grid's values, which its element counter reads."""
    import numpy as np

    from pshlab import bochner, fields
    from pshlab.geometry import unit_ball

    grid = bochner.make_grid(unit_ball(2, radius=1.3), 24)
    seen = {"partial": [], "dbar_01": [], "dbar_star": []}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            seen[name].append(np.size(args[1]))
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in ((bochner.GridDiscretization, "partial"), (bochner, "dbar_01"),
                        (bochner, "dbar_star")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    alpha = bochner.bump_zbar_form(2, radius=0.8)
    bochner.bochner_residual(alpha, fields.sq_norm(2), grid)
    # the 4 real partials of each of the 2 components, once; one call of each operator
    assert seen["partial"] == [grid.weights.size] * 8
    assert len(seen["dbar_01"]) == len(seen["dbar_star"]) == 1
