"""Traced ``permcycles experiment`` run: spans around every layer's public calls.

Run as ``python perfbench/tracing.py --config C --json REPORT --out METRICS``
with ``src`` on ``PYTHONPATH``.  It imports the CLI, rebinds the names that
``permcycles.harness`` and ``permcycles.cli`` call through to span-recording
wrappers, runs the ``experiment`` subcommand in this one process, and writes
the per-layer metrics to METRICS.  The program's own files are not changed:
``harness`` binds its callees with ``from .x import y``, so the wrappers
replace those bindings rather than the defining modules' names.

Spans stay in memory until the run ends.  A span's self time is its duration
minus the time its child spans cover; a layer's self time is the sum over its
spans, so the layer self times add up to the root span.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import sys
import time

LAYERS = ("cli", "harness", "weights", "rng", "sampler", "cycle_stats",
          "point_process", "limit_laws", "gof", "oracle")


class Tracer:
    """Spans as (name, parent id, start, end); a span's id is its list index."""

    def __init__(self):
        self.spans: list = []
        self.counts = {"lse_terms": 0, "cycles_drawn": 0, "box_intersections": 0}
        self.rss_before_sampling: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, parent, start, end)

        return traced

    def self_times(self) -> list[tuple[str, float]]:
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[0], s[3] - s[2] - c) for s, c in zip(self.spans, child)]


def _resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


def install(tracer: Tracer) -> None:
    """Rebind the callees of ``permcycles.harness`` and ``permcycles.cli``."""
    from permcycles import cli, harness, point_process

    def rebind(module, name, span):
        setattr(module, name, tracer.wrap(span, getattr(module, name)))

    rebind(harness, "parse_weights", "weights.parse")
    for name in ("chi_square_gof", "dkw_epsilon", "empirical_cdf", "ks_distance",
                 "ks_two_sample", "pearson_correlation", "tv_distance"):
        rebind(harness, name, "gof." + name)
    for name in ("cycle_ranges", "fixed_point_summary", "sum_of_k_cycles"):
        rebind(harness, name, "cycle_stats.reduce")
    for name, span in (("intensity", "intensity"), ("point_measure", "point_measure"),
                       ("count_in", "count_in"), ("simulate_limit_process", "simulate_limit"),
                       ("parse_boxes", "parse"), ("tail_intensity_mass", "tail_mass")):
        rebind(harness, name, "point_process." + span)
    rebind(harness, "exact_statistic_distribution", "oracle.exact")
    rebind(harness, "sample_limit_spacings", "limit_laws.mixture")
    rebind(harness, "law_atoms", "limit_laws.atoms")
    rebind(harness, "law_support", "limit_laws.atoms")
    rebind(harness, "RngStream", "rng.stream_build")

    norm_constants = tracer.wrap("weights.norm_constants", harness.norm_constants)

    def counted_norm_constants(ws, n_max):
        tracer.counts["lse_terms"] += n_max * (n_max + 1) // 2
        return norm_constants(ws, n_max)

    harness.norm_constants = counted_norm_constants

    limit_cdf = tracer.wrap("limit_laws.limit_cdf", harness.limit_cdf)
    harness.limit_cdf = lambda *a, **kw: tracer.wrap("limit_laws.cdf_eval", limit_cdf(*a, **kw))

    intersect = point_process.intersect_boxes

    def counted_intersect(a, b):
        tracer.counts["box_intersections"] += 1
        return intersect(a, b)

    point_process.intersect_boxes = counted_intersect

    sample = tracer.wrap("sampler.sample", harness.PermutationSampler.sample)

    class TracedSampler(harness.PermutationSampler):
        def sample(self, n, rng):
            if tracer.rss_before_sampling is None:
                tracer.rss_before_sampling = _resident_bytes()
            perm = sample(self, n, rng)
            tracer.counts["cycles_drawn"] += len(perm.cycles)
            return perm

    harness.PermutationSampler = TracedSampler

    run_experiment = tracer.wrap("harness.run_experiment", harness.run_experiment)
    harness.run_experiment = cli.run_experiment = run_experiment
    report = harness.ExperimentReport
    for name in ("to_json", "write_json", "summary"):
        setattr(report, name, tracer.wrap("harness.report", getattr(report, name)))


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(tracer: Tracer, import_s: float) -> dict:
    """Per-layer metric values and self time per layer, from one traced run."""
    by_name: dict[str, float] = {}
    by_layer = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    for name, self_s in tracer.self_times():
        by_name[name] = by_name.get(name, 0.0) + self_s
        by_layer[name.split(".")[0]] += self_s
        calls[name] = calls.get(name, 0) + 1

    draws = sorted((s[3] - s[2]) * 1e6 for s in tracer.spans if s[0] == "sampler.sample")
    # highest of these percentiles that still has at least ten draws beyond it
    ladder = [p for p in (50.0, 90.0, 99.0, 99.9) if len(draws) * (1 - p / 100) >= 10]
    tail_pct = max(ladder, default=50.0)
    # peak resident set of the run so far minus the resident set just before
    # the first draw; it also holds the spans, about 100 bytes each
    growth = 0.0
    if tracer.rss_before_sampling is not None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        growth = max(0.0, (peak - tracer.rss_before_sampling) / 2**20)
    metrics = {
        "weights.norm_constants_s": by_name.get("weights.norm_constants", 0.0),
        "weights.lse_terms": tracer.counts["lse_terms"],
        "rng.streams_built": calls.get("rng.stream_build", 0),
        "rng.stream_build_s": by_name.get("rng.stream_build", 0.0),
        "sampler.draws": len(draws),
        "sampler.cycles_drawn": tracer.counts["cycles_drawn"],
        "sampler.sample_s": by_name.get("sampler.sample", 0.0),
        "sampler.draw_us_p50": _percentile(draws, 50.0) if draws else 0.0,
        "sampler.draw_us_tail": _percentile(draws, tail_pct) if draws else 0.0,
        "sampler.draw_tail_pct": tail_pct,
        "sampler.rss_growth_mb": growth,
        "cycle_stats.reduce_s": by_name.get("cycle_stats.reduce", 0.0),
        "point_process.intensity_s": by_name.get("point_process.intensity", 0.0),
        "point_process.box_intersections": tracer.counts["box_intersections"],
        "point_process.point_measure_s": by_name.get("point_process.point_measure", 0.0),
        "point_process.count_in_s": by_name.get("point_process.count_in", 0.0),
        "point_process.simulate_limit_s": by_name.get("point_process.simulate_limit", 0.0),
        "limit_laws.cdf_evals": calls.get("limit_laws.cdf_eval", 0),
        "limit_laws.cdf_eval_s": by_name.get("limit_laws.cdf_eval", 0.0),
        "limit_laws.mixture_s": by_name.get("limit_laws.mixture", 0.0),
        "gof.s": by_layer["gof"],
        "oracle.exact_s": by_name.get("oracle.exact", 0.0),
        "harness.self_s": by_name.get("harness.run_experiment", 0.0),
        "harness.report_s": by_name.get("harness.report", 0.0),
        "cli.import_s": import_s,
    }
    return {"metrics": metrics, "layer_self_s": by_layer, "span_names": sorted(calls)}


def main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--json", required=True, help="where the report goes")
    parser.add_argument("--out", required=True, help="where the per-layer metrics go")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import permcycles.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    cli_main = tracer.wrap("cli.main", permcycles.cli.main)
    rc = cli_main(["experiment", "--config", args.config, "--json", args.json])
    if rc != 0:
        return rc
    with open(args.out, "w") as fh:
        json.dump(layer_metrics(tracer, import_s), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
