"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py` (or `pshlab accept`); the pass/fail
line per criterion prints straight to the terminal.  The determinism
criterion re-runs the other eight with the same seed and byte-compares the
serialized numeric payloads, so this module takes a couple of minutes end to
end.
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
    assert max(record.values["max_entry_rel_errors"].values()) <= 1e-4
    for ratio in record.values["halving_ratios"].values():
        assert 3.5 <= ratio <= 4.5


def test_criterion_2_bochner_identity(report):
    record = report(criterion_bochner(SEED))
    for key, residual in record.values["residuals"].items():
        limit = 1e-3 if key.startswith("n1") else 5e-3
        assert residual <= limit, (key, residual)


def test_criterion_3_mean_value_characterization(report):
    record = report(criterion_meanvalue(SEED))
    for name in ("sq_norm", "log_abs", "max_log"):
        assert record.values[f"psh/{name}/violations"] == 0
        assert record.values[f"psh/{name}/cylinders"] == 1000
    for name in ("saddle", "neg_sq_norm"):
        assert record.values[f"witness/{name}/worst_margin"] < -1e-3


def test_criterion_4_sharp_estimate_witness(report):
    record = report(criterion_witness(SEED))
    assert record.values["sq_norm/no_certificate"] is True
    for name in ("neg_sq_norm", "saddle"):
        assert record.values[f"{name}/E"].sign < 0
        assert record.values[f"{name}/E_doubled"].sign < 0  # sign-stable
        assert record.values[f"{name}/s"] <= 1e4
    assert record.values["saddle/xi2_abs"] > 0.99


def test_criterion_5_coarse_estimate_chain(report):
    record = report(criterion_coarse_chain(SEED))
    for key, value in record.values.items():
        if key.endswith("/rhs"):
            bound = record.values[key[:-4] + "/bound"]
            assert value.log_abs <= bound.log_abs + math.log1p(1e-9), key
    assert record.values["growth/log_cprime_over_m_at_1e6"] < 1e-4


def test_criterion_6_extension_chains(report):
    record = report(criterion_extension_chains(SEED))
    assert record.values["jensen/worst_residual1"] >= -1e-10
    assert abs(record.values["pluriharmonic/margin"]) <= 1e-6
    assert record.values["coarse/gap_at_m32"] <= 1e-3


def test_criterion_7_best_constant_threshold(report):
    record = report(criterion_best_constant(SEED))
    assert abs(record.values["flat/value"] - 1.0) <= 1e-10
    assert abs(record.values["neg_sq_norm/value"] - record.values["neg_sq_norm/target"]) <= 1e-6
    assert record.values["neg_sq_norm/value"] > 1.0


def test_criterion_8_hormander_ratio(report):
    record = report(criterion_hormander_ratio(SEED))
    assert record.values["zero/ratio"] <= 1.02
    assert record.values["sq_norm/ratio"] <= 1.02
    assert record.values["witness/max_ratio"] > 1.0


def test_criterion_9_determinism(report):
    record = report(criterion_determinism(SEED, payload_bytes(run_criteria(SEED))))
    assert record.values["byte_identical"]
