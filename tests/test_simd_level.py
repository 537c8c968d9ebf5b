"""Reports do not depend on the CPU's SIMD level beyond rounding.

numpy picks its float kernels (exp, log, complex abs and multiply, ...) by the
CPU's SIMD level, and the AVX2 and AVX512 kernels give last bits that differ
from the baseline loops.  Criteria 1, 2 and 8 at seed 0, run in a fresh
interpreter at the host's level and with the AVX2 and AVX512 targets disabled,
give the same flags, counts and strings, and each value within 1e-8 relative
plus 1e-10.  On an AVX512 host 8 of the 43 values differ: the largest
relative move of a value above 1e-10 is 4.2e-9, criterion 1's halving ratio of
neg_gauss, and values at their own rounding floor, such as criterion 1's
finite-difference error of cross (2.57e-13 against 4.17e-13), fall under
the absolute part.  Every squared modulus is geometry.abs_sq, re * re + im * im,
so the finite-difference errors of neg_sq_norm and saddle:2 agree bit for bit
(with np.abs(z) ** 2 they read 2.118e-11 against 2.089e-11 and 1.15e-12
against 2.75e-12, and 14 values differed).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pshlab

DISABLED = "X86_V4 AVX512_ICL AVX512_SPR X86_V3"
REL, ABS = 1e-8, 1e-10

# the enabled dispatch targets, then the payloads of criteria 1, 2 and 8 at seed 0
SCRIPT = """
import json
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from pshlab import acceptance
print(json.dumps([t for t in __cpu_dispatch__ if __cpu_features__.get(t)]))
records = [acceptance.criterion_levi(0), acceptance.criterion_bochner(0),
           acceptance.criterion_hormander_ratio(0)]
print(acceptance.payload_bytes(records).decode())
"""


def run_at_level(disabled) -> tuple:
    env = dict(os.environ)
    src = str(Path(pshlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, timeout=120)
    if proc.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in proc.stderr:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={disabled!r}")
    assert proc.returncode == 0, proc.stderr
    targets, payload = proc.stdout.splitlines()
    return json.loads(targets), json.loads(payload)


def leaves(obj, path=""):
    """(path, value) of every scalar in a JSON payload."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, f"{path}/{key}")
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            yield from leaves(value, f"{path}/{k}")
    else:
        yield path, obj


@pytest.fixture(scope="module")
def levels():
    """The payload leaves at the host's level and at the baseline level, run once."""
    host_targets, host = run_at_level(None)
    base_targets, base = run_at_level(DISABLED)
    if base_targets == host_targets:
        pytest.skip(f"no SIMD target of {DISABLED!r} is enabled on this host")
    return dict(leaves(host)), dict(leaves(base))


def test_payloads_agree_at_the_host_and_the_baseline_simd_level(levels):
    host, base = levels
    assert host.keys() == base.keys()
    for path, a in host.items():
        b = base[path]
        if isinstance(a, float) and isinstance(b, float):
            assert abs(a - b) <= REL * max(abs(a), abs(b)) + ABS, path
        else:
            assert (type(a), a) == (type(b), b), path


@pytest.mark.parametrize("field", ["neg_sq_norm", "saddle:2"])
def test_squared_moduli_agree_bit_for_bit_across_simd_levels(levels, field):
    """Criterion 1's finite-difference error of a quadratic weight takes no kernel but
    IEEE multiply and add: its |z|^2 is re * re + im * im (geometry.abs_sq), where
    np.abs(z) ** 2 took the SIMD-dependent complex abs."""
    host, base = levels
    path = f"/0/values/max_entry_rel_errors/{field}"
    assert host[path] == base[path]
