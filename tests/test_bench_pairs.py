"""Verdicts of scripts/bench_pairs.py on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"run_s": "lower", "draws_per_s": "higher", "sampler.sample_s": "lower"}
BOUNDS = {"run_s": 0.25, "draws_per_s": 0.25}


def _runs(parent: dict, change: dict) -> list:
    """Runs of one workload from per-side lists of values for each metric."""
    runs = []
    for side, metrics in (("parent", parent), ("change", change)):
        for i in range(len(next(iter(metrics.values())))):
            values = {name: {"value": v[i]} for name, v in metrics.items()}
            runs.append({"workload": "w", "side": side, "result": {"metrics": values}})
    return runs


def _summary(parent: dict, change: dict) -> dict:
    return bench_pairs.summarize(_runs(parent, change), BETTER, BOUNDS)["w"]


TIGHT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_a_change_slower_beyond_the_bound_is_worse_and_resolved():
    got = _summary({"run_s": TIGHT}, {"run_s": [1.3 * v for v in TIGHT]})["run_s"]
    assert got["worse_beyond_bound"] is True
    assert got["unresolved"] is False
    assert got["change_wins"] == 0


def test_a_change_within_the_bound_is_neither():
    got = _summary({"run_s": TIGHT}, {"run_s": [1.1 * v for v in TIGHT]})["run_s"]
    assert got["worse_beyond_bound"] is False
    assert got["unresolved"] is False


@pytest.mark.parametrize("factor,worse", [(0.7, True), (1.4, False)])
def test_a_higher_is_better_metric_is_worse_when_it_falls(factor, worse):
    got = _summary({"draws_per_s": TIGHT}, {"draws_per_s": [factor * v for v in TIGHT]})
    assert got["draws_per_s"]["worse_beyond_bound"] is worse


def test_a_wide_parent_spread_leaves_the_metric_unresolved():
    wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]
    got = _summary({"run_s": wide}, {"run_s": TIGHT})["run_s"]
    assert got["worse_beyond_bound"] is False
    assert got["unresolved"] is True
    # the same spread on the change side is just as unresolved
    assert _summary({"run_s": TIGHT}, {"run_s": wide})["run_s"]["unresolved"] is True


def test_wide_runs_are_resolved_when_every_change_run_beats_every_parent_run():
    parent = [2.0, 3.0, 2.2, 2.8, 2.4, 2.6, 2.1, 2.9, 2.5, 2.5]
    change = [v - 1.05 for v in parent]
    got = _summary({"run_s": parent}, {"run_s": change})["run_s"]
    assert got["unresolved"] is False
    assert got["worse_beyond_bound"] is False
    assert got["change_wins"] == 10


def test_metrics_without_a_bound_get_no_verdict():
    got = _summary({"sampler.sample_s": TIGHT}, {"sampler.sample_s": [2 * v for v in TIGHT]})
    assert "worse_beyond_bound" not in got["sampler.sample_s"]
    assert "unresolved" not in got["sampler.sample_s"]
