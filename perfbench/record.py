"""Run all four workloads, print their metrics and write ``perfbench/baseline.json``.

    python3 perfbench/record.py [--seed N]

For each workload this makes one untraced call (end-to-end metrics) and one
traced call (per-layer metrics) of ``run.py``'s workload runner, each for the
``run_seconds`` of ``BENCHMARK.json``, prints every metric by name with its
unit, and fails if any report failed its gate.  The JSON file records the host, the metrics, each workload's reason for being in
the benchmark, the measured share of traced self time spent in the layers
the workload is meant to stress, and what the benchmark leaves out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy
import scipy

import run
from workloads import WORKLOADS

NOT_MEASURED = [
    "No workload evaluates cdf_fixed_point_sum at large theta_1: that is the open "
    "cancellation bug of ROADMAP item 4, and its fix needs a correctness test, not a timing.",
    "laplace_additive is not timed, because no experiment kind calls it.",
]


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = run.HERE / "baseline.json"

    workloads = {}
    correct = True
    for name, wl in WORKLOADS.items():
        plain = run.run_workload(name, args.seed, seconds, traced=False)
        traced = run.run_workload(name, args.seed, seconds, traced=True)
        correct &= plain["result"]["correct"] and traced["result"]["correct"]
        self_s = traced["raw"]["layer_self_s"]
        total = sum(self_s.values())
        workloads[name] = {
            "why": wl.why,
            "config": dict(wl.shape, workers=wl.workers),
            "most_of_the_work": list(wl.main_layers),
            "does_little": list(wl.minor_layers),
            "end_to_end": plain["result"]["metrics"],
            "failed_frac": plain["result"]["failed"] / plain["result"]["attempted"],
            "per_layer": traced["result"]["metrics"],
            "traced_self_share": {k: v / total for k, v in self_s.items()},
            "failures": plain["failures"] + traced["failures"],
        }
        print(f"{name}  (most of the work: {', '.join(wl.main_layers)})")
        run.print_metrics(plain["result"])
        run.print_metrics(traced["result"])
        for failure in workloads[name]["failures"]:
            print(f"  FAILED {failure}")

    baseline = {
        "host": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "program_commit": _commit(),
        },
        "seed": args.seed,
        "seconds": seconds,
        "workloads": workloads,
        "not_measured": NOT_MEASURED,
    }
    out.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
