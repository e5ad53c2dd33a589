"""The traced run records a span for every layer and leaves the report alone."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One traced and one untraced run per workload, both at one worker."""
    work = tmp_path_factory.mktemp("trace")
    out = {}
    for name, wl in WORKLOADS.items():
        seed = wl.config_seeds(0, 1)[0]
        plain = run.run_experiment(wl, seed, 1, work, f"{name}-plain", 120.0)
        traced = run.run_experiment(wl, seed, 1, work, f"{name}-traced", 120.0, traced=True)
        out[name] = (plain, traced)
    return out


def test_every_layer_emits_spans(traced_runs):
    seen = set()
    for name, (_, traced) in traced_runs.items():
        assert traced.ok, traced.failures
        layers = {span.split(".")[0] for span in traced.layers["span_names"]}
        assert set(WORKLOADS[name].main_layers) <= layers, name
        seen |= layers
    assert seen == set(LAYERS)


def test_traced_report_is_byte_identical(traced_runs):
    for name, (plain, traced) in traced_runs.items():
        assert plain.ok, plain.failures
        assert plain.report == traced.report, name


def test_traced_run_prints_every_per_layer_metric(traced_runs):
    for _, traced in traced_runs.values():
        names = set(traced.layers["metrics"]) | {"trace.overhead_s", "trace.main_layers_share"}
        assert names == set(run.PER_LAYER)


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [("a.x", -1, 0.0, 10.0), ("b.y", 0, 1.0, 4.0), ("c.z", 1, 2.0, 3.0),
                    ("b.y", 0, 5.0, 6.0)]
    assert tracer.self_times() == [("a.x", 6.0), ("b.y", 2.0), ("c.z", 1.0), ("b.y", 1.0)]


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "counts_n5",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
