"""One pass of a workload, in a fresh interpreter started by run.py.

Imports pshlab.cli and builds its parser (the set-up every CLI user pays),
then runs the workload's job list once, cold, and times every job.  After the
set-up (twice) and after every job it asks run.py to time the reference loop
and waits until it has.  With --trace 1 the wrappers of tracing.py are
installed before the list runs.  With --setup-only it stops after the
reference loops that follow the set-up.  Prints one JSON object as its last
line of standard output.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import jobs as joblib  # this file's directory is first on sys.path
import tracing


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}",
        "PSHLAB_THREADS": os.environ.get("PSHLAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def reference_point() -> None:
    """Ask run.py to time the reference loop now, and wait until it has."""
    sys.__stdout__.write("ref\n")
    sys.__stdout__.flush()
    sys.stdin.readline()


def run_jobs(jobs):
    """Run the job list with standard output captured; returns (seconds per job, results)."""
    times, results = [], []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        for job in jobs:
            t0 = time.perf_counter()
            try:
                results.append((job.call(), None))
            except Exception:  # a job that raises counts as failed; keep going
                results.append((None, traceback.format_exc(limit=3)))
            times.append(time.perf_counter() - t0)
            reference_point()
    return times, results


def outputs(jobs, results):
    out = []
    for job, (raw, error) in zip(jobs, results):
        if error is None:
            try:
                out.append((job.canonical(raw), None))
            except Exception:
                out.append((None, traceback.format_exc(limit=3)))
        else:
            out.append((None, error))
    return out


def gate(job, output, error, pinned, pins) -> dict:
    """Digest, summary and the problems the gate finds in one job's output."""
    if error is not None:
        return {"problems": ["raised: " + error], "drift": None, "digest": None, "summary": None}
    entry = {"problems": [], "drift": None,
             "digest": joblib.digest(output), "summary": joblib.summarize(output)}
    if job.oracle is not None:
        entry["problems"] += job.oracle(output)
    if job.name in pinned:
        problems, entry["drift"] = joblib.compare(entry["summary"], pinned[job.name])
        entry["problems"] += problems
    elif pins:
        entry["problems"].append("no pin for this job")
    return entry


def main() -> int:
    import pshlab.cli

    pshlab.cli.build_parser()
    ready = time.monotonic()

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    reference_point()
    reference_point()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")) as handle:
        pins = json.load(handle).get(args.workload, {})
    pinned_at_seed = pins.get(str(args.seed))
    pinned = pinned_at_seed if pinned_at_seed is not None else joblib.invariant_pins(pins)

    jobs = joblib.build(args.workload, args.seed, args.out_dir)
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    job_s, results = run_jobs(jobs)
    if args.trace:
        trace = tracer.metrics()  # before the gate, which must not add to the spans
    entries = {job.name: gate(job, output, error, pinned, pins)
               for job, (output, error) in zip(jobs, outputs(jobs, results))}
    report = {"ready": ready, "job_s": job_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "pinned_seed": pinned_at_seed is not None, "jobs": entries}
    if args.trace:
        report["trace"] = trace
    report["machine"] = machine_info()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
