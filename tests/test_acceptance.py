"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py` (or `pshlab accept`); the pass/fail
line per criterion prints straight to the terminal.  The determinism
criterion re-runs the other eight with the same seed and byte-compares the
serialized numeric payloads, so this module takes a couple of minutes end to
end.

Each test pins the tolerances that its record reports to the values the
criterion states, once, and checks the values against the record's tolerances:
a criterion cannot pass here on a gate other than the one it reports.
"""

import math

import pytest

from pshlab.acceptance import (
    RUNTIME_LIMITS,
    criterion_best_constant,
    criterion_bochner,
    criterion_coarse_chain,
    criterion_determinism,
    criterion_extension_chains,
    criterion_hormander_ratio,
    criterion_levi,
    criterion_meanvalue,
    criterion_witness,
    payload_bytes,
    run_criteria,
)

SEED = 2024


@pytest.fixture
def report(capsys):
    def _report(record):
        status = "PASS" if record.passed else "FAIL"
        with capsys.disabled():
            print(
                f"\n[{status}] {record.name}: {record.seconds:.1f}s "
                f"(limit {RUNTIME_LIMITS[record.name]:.0f}s)"
            )
        assert record.passed, record.values
        assert record.seconds <= RUNTIME_LIMITS[record.name], (
            f"{record.name} exceeded its runtime budget: {record.seconds:.1f}s"
        )
        return record

    return _report


def test_criterion_1_levi_oracle_agreement(report):
    record = report(criterion_levi(SEED))
    tol = record.tolerances
    assert tol == {"rel_error": 1e-4, "ratio_range": [3.5, 4.5]}
    assert max(record.values["max_entry_rel_errors"].values()) <= tol["rel_error"]
    lo, hi = tol["ratio_range"]
    for ratio in record.values["halving_ratios"].values():
        assert lo <= ratio <= hi


def test_criterion_2_bochner_identity(report):
    record = report(criterion_bochner(SEED))
    tol = record.tolerances
    assert tol == {"n1": 1e-3, "n2": 5e-3}
    for key, residual in record.values["residuals"].items():
        assert residual <= tol[key.split("/")[0]], (key, residual)


def test_criterion_3_mean_value_characterization(report):
    record = report(criterion_meanvalue(SEED))
    tol = record.tolerances
    assert tol == {"psh_margin": -1e-6, "witness_margin": -1e-3}
    for name in ("sq_norm", "log_abs", "max_log"):
        assert record.values[f"psh/{name}/violations"] == 0
        assert record.values[f"psh/{name}/cylinders"] == 1000
    for name in ("saddle", "neg_sq_norm"):
        assert record.values[f"witness/{name}/worst_margin"] < tol["witness_margin"]


def test_criterion_4_sharp_estimate_witness(report):
    record = report(criterion_witness(SEED))
    tol = record.tolerances
    assert tol == {"s_max": 1e4, "E": 0.0, "saddle_xi2_abs": 0.99}
    assert record.values["sq_norm/no_certificate"] is True
    for name in ("neg_sq_norm", "saddle"):
        assert record.values[f"{name}/E"].sign < tol["E"]
        assert record.values[f"{name}/E_doubled"].sign < tol["E"]  # sign-stable
        assert record.values[f"{name}/s"] <= tol["s_max"]
    assert record.values["saddle/xi2_abs"] > tol["saddle_xi2_abs"]


def test_criterion_5_coarse_estimate_chain(report):
    record = report(criterion_coarse_chain(SEED))
    tol = record.tolerances
    assert tol == {"chain": "rhs <= (1+1e-9) bound", "growth_at_1e6": 1e-4}
    slack = float(tol["chain"].removeprefix("rhs <= (1+").removesuffix(") bound"))
    for key, value in record.values.items():
        if key.endswith("/rhs"):
            bound = record.values[key[:-4] + "/bound"]
            assert value.log_abs <= bound.log_abs + math.log1p(slack), key
    assert record.values["growth/log_cprime_over_m_at_1e6"] < tol["growth_at_1e6"]


def test_criterion_6_extension_chains(report):
    record = report(criterion_extension_chains(SEED))
    tol = record.tolerances
    assert tol == {"jensen_residual": -1e-10, "pluriharmonic_margin": 1e-6, "coarse_gap": 1e-3}
    assert record.values["jensen/worst_residual1"] >= tol["jensen_residual"]
    assert abs(record.values["pluriharmonic/margin"]) <= tol["pluriharmonic_margin"]
    assert record.values["coarse/gap_at_m32"] <= tol["coarse_gap"]


def test_criterion_7_best_constant_threshold(report):
    record = report(criterion_best_constant(SEED))
    tol = record.tolerances
    assert tol == {"flat": 1e-10, "neg_sq_norm": 1e-6, "neg_sq_norm_exceeds": 1.0}
    assert abs(record.values["flat/value"] - 1.0) <= tol["flat"]
    value, target = record.values["neg_sq_norm/value"], record.values["neg_sq_norm/target"]
    assert abs(value - target) <= tol["neg_sq_norm"]
    assert value > tol["neg_sq_norm_exceeds"]


def test_criterion_8_hormander_ratio(report):
    record = report(criterion_hormander_ratio(SEED))
    tol = record.tolerances
    assert tol == {"subharmonic_ratio": 1.02, "witness_ratio": 1.0, "residual": 5e-3}
    for name in ("zero", "sq_norm"):
        assert record.values[f"{name}/ratio"] <= tol["subharmonic_ratio"]
        assert record.values[f"{name}/residual"] <= tol["residual"]
    assert record.values["witness/max_ratio"] > tol["witness_ratio"]


def test_criterion_9_determinism(report):
    record = report(criterion_determinism(SEED, payload_bytes(run_criteria(SEED))))
    assert record.tolerances == {"comparison": "byte-identical numeric payloads"}
    assert record.values["byte_identical"]
