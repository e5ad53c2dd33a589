"""Command-line interface.

Subcommands: ``sample`` (print permutations), ``stats`` (per-draw statistics
as CSV), ``exact`` (brute-force distributions for small n), ``limit``
(evaluate limiting CDFs and Laplace transforms), and ``experiment`` (run a
config-driven Monte Carlo comparison).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

import numpy as np

from .harness import ExperimentConfig, run_experiment, write_replicates_csv
from .limit_laws import LAW_NAMES, laplace_k_cycle_sum, limit_cdf
from .oracle import exact_statistic_distribution
from .point_process import BoxSpecError
from .rng import RngStream
from .sampler import PermutationSampler
from .cycle_stats import STATISTICS, CycleStatistics, parse_statistic
from .weights import (
    DegenerateModelError,
    WeightSpecError,
    norm_constants,
    parse_weights,
)

_LANE_PERM = 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permcycles",
        description="Random permutations with cycle weights: sampling and limit-law checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw permutations and print them")
    p.add_argument("--weights", required=True, help="weight spec, e.g. ewens:2 or poly:1,0.5")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("cycles", "oneline"), default="cycles")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("stats", help="per-draw cycle statistics as CSV")
    p.add_argument("--weights", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-max", type=int, default=6, dest="k_max")
    p.add_argument(
        "--emit",
        default="counts,sums,ranges,fixed",
        help="comma list from: counts, sums, ranges, fixed",
    )
    p.add_argument("--out", default="", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("exact", help="brute-force exact distribution (n <= 8)")
    p.add_argument("--weights", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--statistic",
        required=True,
        help=" | ".join(form for s in STATISTICS for form in s.forms()),
    )
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("limit", help="evaluate limiting laws")
    limit_sub = p.add_subparsers(dest="limit_command", required=True)

    q = limit_sub.add_parser("cdf", help="print x,F(x) rows of a limiting CDF")
    q.add_argument("--law", required=True, choices=LAW_NAMES)
    q.add_argument("--params", default="", help="law parameters, e.g. theta=2 or theta=1,k=3")
    q.add_argument("--theta", type=float, default=None, help="shorthand for --params theta=...")
    q.add_argument("--k", type=int, default=None, help="cycle length (range laws only)")
    q.add_argument("--grid", required=True, help="start:stop:step")
    q.set_defaults(func=_cmd_limit_cdf)

    q = limit_sub.add_parser("laplace", help="Laplace transform of the scaled k-cycle sum")
    q.add_argument("--theta", type=float, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--t", required=True, help="comma list of transform arguments")
    q.set_defaults(func=_cmd_limit_laplace)

    p = sub.add_parser("experiment", help="run a config-driven experiment")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--json", default="", help="write the full report here")
    p.add_argument("--csv", default="", help="write per-replicate records here")
    p.add_argument("--workers", type=int, default=0, help="override the config's worker count")
    p.set_defaults(func=_cmd_experiment)

    return parser


def _cmd_sample(args) -> int:
    ws = parse_weights(args.weights)
    table = norm_constants(ws, args.n)
    sampler = PermutationSampler(ws, table)
    for rng in RngStream(args.seed, (_LANE_PERM, 0)).consecutive(args.count):
        perm = sampler.sample(args.n, rng)
        if args.format == "oneline":
            print(" ".join(str(v) for v in perm.image))
        else:
            print("".join("(" + " ".join(str(v) for v in c) + ")" for c in perm.cycles))
    return 0


def _stats_header(emit: list[str], k_max: int) -> list[str]:
    cols = ["replicate"]
    if "counts" in emit:
        cols += [f"C_{k}" for k in range(1, k_max + 1)]
    if "sums" in emit:
        cols += [f"S_{k}" for k in range(1, k_max + 1)]
    if "ranges" in emit:
        cols += [f"r_{k}" for k in range(2, k_max + 1)]
        cols += [f"R_{k}" for k in range(2, k_max + 1)]
    if "fixed" in emit:
        cols += ["m", "M", "delta", "Delta"]
    return cols


def _cmd_stats(args) -> int:
    emit = [s.strip() for s in args.emit.split(",") if s.strip()]
    unknown = [s for s in emit if s not in ("counts", "sums", "ranges", "fixed")]
    if unknown:
        raise ValueError(f"unknown emit group {unknown[0]!r}")
    if args.k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {args.k_max}")
    if args.k_max < 2 and "ranges" in emit:
        raise ValueError("ranges need k_max >= 2")
    ws = parse_weights(args.weights)
    table = norm_constants(ws, args.n)
    sampler = PermutationSampler(ws, table)
    streams = RngStream(args.seed, (_LANE_PERM, 0)).consecutive(args.count)

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(_stats_header(emit, args.k_max))
        for i, rng in enumerate(streams):
            perm = sampler.sample(args.n, rng)
            st = CycleStatistics.from_permutation(perm, args.k_max)
            row: list = [i]
            if "counts" in emit:
                row += [st.counts[k] for k in range(1, args.k_max + 1)]
            if "sums" in emit:
                row += [st.sums[k] for k in range(1, args.k_max + 1)]
            if "ranges" in emit:
                row += [st.min_range[k] for k in range(2, args.k_max + 1)]
                row += [st.max_range[k] for k in range(2, args.k_max + 1)]
            if "fixed" in emit:
                row += list(st.fixed)
            writer.writerow(row)
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_exact(args) -> int:
    ws = parse_weights(args.weights)
    entry, k = parse_statistic(args.statistic)
    dist = exact_statistic_distribution(ws, args.n, entry.selector(k))
    print("value,probability")
    for v, p in zip(dist.support, dist.probabilities):
        if isinstance(v, tuple):
            label = "+".join(str(x) for x in v)
        else:
            label = str(v)
        print(f"{label},{float(p)!r}")
    return 0


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid {text!r} is not start:stop:step")
    try:
        a, b, s = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"grid {text!r} is not numeric") from None
    if s <= 0 or b < a:
        raise ValueError(f"grid {text!r} needs start <= stop and step > 0")
    return np.arange(a, b + s / 2.0, s)


def _parse_law_params(text: str) -> dict:
    """Parse ``theta=1,k=2`` style parameter lists."""
    out: dict = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, sep, value = piece.partition("=")
        name = name.strip().lower()
        if not sep or name not in ("theta", "k"):
            raise ValueError(f"bad law parameter {piece!r} (expected theta=... or k=...)")
        try:
            out[name] = float(value) if name == "theta" else int(value)
        except ValueError:
            raise ValueError(f"bad value in law parameter {piece!r}") from None
    return out


def _cmd_limit_cdf(args) -> int:
    params = _parse_law_params(args.params)
    if args.theta is not None:
        params["theta"] = args.theta
    if args.k is not None:
        params["k"] = args.k
    if "theta" not in params:
        raise ValueError("the law needs theta (pass --params theta=... or --theta)")
    cdf = limit_cdf(args.law, params["theta"], params.get("k"))
    rows = [f"{float(x)!r},{cdf(float(x))!r}" for x in _parse_grid(args.grid)]
    print("x,cdf", *rows, sep="\n")
    return 0


def _cmd_limit_laplace(args) -> int:
    try:
        ts = [float(s) for s in args.t.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"t list {args.t!r} is not numeric") from None
    if not ts:
        raise ValueError("need at least one t value")
    rows = [f"{t!r},{laplace_k_cycle_sum(args.theta, args.k, t)!r}" for t in ts]
    print("t,laplace", *rows, sep="\n")
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.workers:
        cfg = dataclasses.replace(cfg, workers=args.workers)  # validates the override
    report = run_experiment(cfg)
    print(report.summary())
    if args.json:
        report.write_json(args.json)
    if args.csv:
        write_replicates_csv(report, args.csv)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        WeightSpecError,
        BoxSpecError,
        DegenerateModelError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
