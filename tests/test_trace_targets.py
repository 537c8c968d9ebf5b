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
    passes partial the form's mapped values, whose size its element counter reads."""
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
    bochner.bochner_residual(alpha, [fields.sq_norm(2)], grid)
    idx = bochner.support_values(alpha, grid)[0]
    blocks = -(-grid.stencil_band(idx).size // bochner.BAND_BLOCK)
    assert blocks == 4
    # per block of the band, one partial along each of the 4 real axes, of both
    # components at once, from their 2 (k + 1) mapped values (a zero column past the
    # k nonzero nodes), not the whole grid's; one call of each operator
    assert seen["partial"] == [2 * (idx.size + 1)] * (4 * blocks)
    assert len(seen["dbar_01"]) == len(seen["dbar_star"]) == blocks


def count_where_the_tracer_wraps(monkeypatch, modname, attr, seen):
    """Replace every pshlab module's binding of pshlab.<modname>.<attr> by a
    counter, as the tracer's install does."""
    import sys

    original = getattr(importlib.import_module("pshlab." + modname), attr)

    def counted(*args, **kwargs):
        seen[attr] += 1
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key == "pshlab" or key.startswith("pshlab."):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)


def test_criteria_5_and_8_reach_the_traced_solve_names(monkeypatch):
    """Criterion 8 reaches dbar1d.hormander_ratio, cauchy_transform and
    weighted_bergman_projection, and criterion 5 witness.coarse_rhs_bound,
    through the bindings that the tracer replaces, so none of the spans that a
    traced certificates run requires to be non-zero reads zero."""
    from collections import Counter

    from pshlab import acceptance

    seen = Counter()
    for modname, attr in (("dbar1d", "hormander_ratio"), ("dbar1d", "cauchy_transform"),
                          ("dbar1d", "weighted_bergman_projection"),
                          ("witness", "coarse_rhs_bound")):
        count_where_the_tracer_wraps(monkeypatch, modname, attr, seen)
    acceptance.criterion_hormander_ratio(0)
    acceptance.criterion_coarse_chain(0)
    # one solve per right-hand side, one projection per weight, one coarse chain call
    assert seen == {"hormander_ratio": 2, "cauchy_transform": 2,
                    "weighted_bergman_projection": 6, "coarse_rhs_bound": 1}


def test_grid_criteria_reach_the_traced_form_evaluator(monkeypatch):
    """The tracer wraps the class attribute FormField01.evaluate (the span
    bochner.form_evaluate); criteria 2, 4, 5 and 8 evaluate every form through it,
    once per grid, so the span that a traced certificates run requires to be
    non-zero does not read zero.  It would if evaluate stopped being a method."""
    from collections import Counter

    from pshlab import acceptance
    from pshlab.bochner import FormField01

    calls = Counter()
    evaluate = FormField01.evaluate

    def counted(self, pts):
        calls[self.name] += 1
        return evaluate(self, pts)

    monkeypatch.setattr(FormField01, "evaluate", counted)
    seen = {}
    for crit in ("criterion_bochner", "criterion_witness", "criterion_coarse_chain",
                 "criterion_hormander_ratio"):
        calls.clear()
        getattr(acceptance, crit)(0)
        seen[crit] = dict(calls)
    # one per (form, grid) pair of criterion 2, 2 per form: one Bochner call serves
    # both weights; the two certificates' grids and doubled grids; one per eps; one
    # per right-hand side
    assert seen == {
        "criterion_bochner": {"bump_const": 2, "bump_zbar2": 2},
        "criterion_witness": {"dbar_nu": 4},
        "criterion_coarse_chain": {"alpha_eps": 2},
        "criterion_hormander_ratio": {"dbar_bump": 1, "dbar_nu": 1},
    }


def test_extension_paths_reach_the_traced_extension_names(monkeypatch, tmp_path):
    """Criteria 6 and 7 and the extend and coarse-extend subcommands (at the
    certificates jobs' command lines) reach the four extension functions through
    the bindings that the tracer replaces, so none of the extension.* spans that a
    traced certificates run requires to be non-zero reads zero."""
    from collections import Counter

    from pshlab import acceptance, cli

    seen = Counter()
    for attr in ("best_extension_constant", "optimal_extension_margin", "jensen_chain_check",
                 "coarse_extension_bound"):
        count_where_the_tracer_wraps(monkeypatch, "extension", attr, seen)
    cyl = ["--cylinder", "r=1.0,s=1.0,seed=0", "--seed", "0"]
    paths = {
        "criterion_extension_chains": lambda: acceptance.criterion_extension_chains(0),
        "criterion_best_constant": lambda: acceptance.criterion_best_constant(0),
        "extend": lambda: cli.main(["extend", "--func", "neg_sq_norm", "--center", "[[0,0]]",
                                    "--p", "2", "--degree", "8", "--out",
                                    str(tmp_path / "e.json"), *cyl]),
        "coarse-extend": lambda: cli.main(["coarse-extend", "--func", "sq_norm", "--m",
                                           "1,2,4,8,16", "--out", str(tmp_path / "c.csv"), *cyl]),
    }
    counts = {}
    for name, run in paths.items():
        seen.clear()
        run()
        counts[name] = dict(seen)
    # four Jensen chains, each reading a margin's report, one margin more and three
    # coarse bounds; two Gram searches; the best constant and its margin at p = 2;
    # one bound per m
    assert counts == {
        "criterion_extension_chains": {"jensen_chain_check": 4, "optimal_extension_margin": 5,
                                       "coarse_extension_bound": 3},
        "criterion_best_constant": {"best_extension_constant": 2},
        "extend": {"best_extension_constant": 1, "optimal_extension_margin": 1},
        "coarse-extend": {"coarse_extension_bound": 5},
    }


def test_witness_energy_counter_reads_the_grid(monkeypatch):
    """The tracer counts witness.estimate_functional_E's points from its fifth
    argument, which the form's (nonzero nodes, values) pair leaves in place: on a
    criterion-4 run it is each energy's GridDiscretization, and the count is the
    sum of their node counts."""
    from collections import Counter

    from pshlab import acceptance, witness
    from pshlab.bochner import GridDiscretization

    [(_, _, name, count)] = [t for t in load_tracing().TARGETS if t[1] == "estimate_functional_E"]
    grids, stats = [], Counter()
    estimate = witness.estimate_functional_E

    def counted(*args, **kwargs):
        result = estimate(*args, **kwargs)
        grids.append(args[4])
        count(stats, name, result, args, kwargs)
        return result

    monkeypatch.setattr(witness, "estimate_functional_E", counted)
    acceptance.criterion_witness(0)
    assert grids and all(isinstance(g, GridDiscretization) for g in grids)
    assert stats[name + ".points"] == sum(g.weights.size for g in grids)
