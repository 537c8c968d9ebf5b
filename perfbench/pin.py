"""Record the job summaries of the current code as the pins the gate compares with.

    python3 perfbench/pin.py --seeds 0-9

Run from the root of a checkout of the commit whose outputs are the reference.
Runs one untraced pass per workload and seed and rewrites perfbench/pins.json
for every workload.
"""

import argparse
import json
import os
import sys
import tempfile
import time

from jobs import WORKLOADS
from reference import Reference
from run import spawn, worker_env

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range a-b")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    path = os.path.join(HERE, "pins.json")
    pins = {}
    env = worker_env()
    reference = Reference()
    for workload in WORKLOADS:
        pins[workload] = {}
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.getcwd()) as out_dir:
                ns = argparse.Namespace(workload=workload, seed=seed)
                result = spawn(ns, out_dir, env, time.monotonic() + 600.0, reference)
            pins[workload][str(seed)] = {name: e["summary"] for name, e in result["jobs"].items()}
            print(f"{workload} seed {seed}: job_s {sum(result['job_s']):.3f}", flush=True)
    with open(path, "w") as handle:
        json.dump(pins, handle, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
