"""Alternating parent/change pairs of ``perfbench/run.py``, written to a BENCH file.

Each pair runs the unchanged benchmark once in each of two checkouts, on the
same seed, alternating which side goes first.  Every JSON line the benchmark
prints is kept raw, with its seed and its position in the pair.  Each side is
named by its commit and a SHA-256 of its ``src/`` tree; the commit is null
when ``src/`` has uncommitted changes.  A summary gives each side's median
and quartiles and how many pairs the change won, per workload and metric.
Each call appends one such set to ``--out``.  The run length is
``run_seconds`` of the change's ``BENCHMARK.json``, the same on both sides.

Example:
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload counts_n20k --pairs 10 --out BENCH_table_once.json
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit_of(root: Path):
    """HEAD of the checkout, or None when its ``src/`` differs from HEAD."""
    head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--", "src"],
                           capture_output=True, text=True)
    if head.returncode or dirty.returncode or dirty.stdout.strip():
        return None
    return head.stdout.strip()


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list, better: dict) -> dict:
    out = {}
    for wl in sorted({r["workload"] for r in runs}):
        sides = {s: [r for r in runs if r["workload"] == wl and r["side"] == s]
                 for s in ("parent", "change")}
        per_metric = {}
        for name in sides["parent"][0]["result"]["metrics"]:
            vals = {s: [r["result"]["metrics"][name]["value"] for r in rs]
                    for s, rs in sides.items()}
            sign = -1 if better[name] == "lower" else 1
            wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
            entry = {"pairs": len(vals["change"]), "change_wins": wins}
            for side, v in vals.items():
                q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
                entry[side] = {"median": statistics.median(v), "q1": q[0], "q3": q[2]}
            per_metric[name] = entry
        out[wl] = per_metric
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    record = {
        "host": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "commit": {side: commit_of(root) for side, root in roots.items()},
        "src_sha256": {side: src_digest(root) for side, root in roots.items()},
        "seconds": spec["run_seconds"],
        "trace": args.trace,
        "runs": [],
    }
    for wl in args.workload:
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                result = bench(roots[side], wl, seed, spec["run_seconds"], args.trace)
                record["runs"].append({"workload": wl, "pair": i, "seed": seed,
                                       "side": side, "position": position,
                                       "result": result})
                print(json.dumps(record["runs"][-1]), flush=True)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    record["summary"] = summarize(record["runs"], better)
    bench_file = json.loads(args.out.read_text()) if args.out.exists() else {"sets": []}
    bench_file["sets"].append(record)
    args.out.write_text(json.dumps(bench_file, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
