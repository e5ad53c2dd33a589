"""End-to-end benchmark of ``permcycles experiment``, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ``src``.
Every measured repetition is a fresh ``python -m permcycles experiment``
process, because in-process repeats would reuse the sampler caches that a
command-line user never has warm.  Repetitions run one after another (one
closed-loop client) for ``--seconds`` seconds; each gets its own experiment
seed drawn from ``--seed``, and its JSON report must pass the statistical
gate in ``gates.py``.  Once per call, an untimed run at the other worker
count must give a byte-identical report.

``--trace 0`` prints the end-to-end metrics: the fastest repetition's wall
time, draws per second and CPU time of the process tree, the largest peak
RSS of any repetition's process tree (both from ``os.wait4``; the peak
varies with the cycle lengths a seed draws), the median of three to nine
set-up probes (a fresh interpreter that imports ``permcycles`` and builds
``norm_constants``), and the fraction of program runs that succeeded.  Times
are taken from the fastest repetition, not the median one, because on a
shared host the speed of the whole machine drifts by tens of percent over a
minute; contention only ever adds time, so the fastest repetition is the
steadiest estimate of the program's own cost.  The medians are printed too.

``--trace 1`` alternates untraced and traced runs (``tracing.py``) at one
worker and prints the per-layer metrics as medians over the traced runs,
plus the tracing overhead: traced minus untraced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from gates import check_report
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

# Set-up probes: at least SETUP_MIN_REPS, then more while they have taken
# less than SETUP_BUDGET_S in all, up to SETUP_MAX_REPS.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 9
SETUP_BUDGET_S = 4.0
CHILD_TIMEOUT_S = 120.0
# A call must end within 180 s: children are killed CALL_LIMIT_S after it
# began, and no repetition starts after LAST_START_S.
CALL_LIMIT_S = 170.0
LAST_START_S = 100.0

SETUP_CODE = (
    "import sys, permcycles; "
    "permcycles.norm_constants(permcycles.parse_weights(sys.argv[1]), int(sys.argv[2]))"
)

END_TO_END = {
    "run_s": "s",
    "draws_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

PER_LAYER = {
    "weights.norm_constants_s": "s",
    "weights.lse_terms": "count",
    "rng.streams_built": "count",
    "rng.stream_build_s": "s",
    "sampler.draws": "count",
    "sampler.cycles_drawn": "count",
    "sampler.sample_s": "s",
    "sampler.draw_us_p50": "us",
    "sampler.draw_us_tail": "us",
    "sampler.draw_tail_pct": "%",
    "sampler.rss_growth_mb": "MB",
    "cycle_stats.reduce_s": "s",
    "point_process.intensity_s": "s",
    "point_process.box_intersections": "count",
    "point_process.point_measure_s": "s",
    "point_process.count_in_s": "s",
    "point_process.simulate_limit_s": "s",
    "limit_laws.cdf_evals": "count",
    "limit_laws.cdf_eval_s": "s",
    "limit_laws.mixture_s": "s",
    "gof.s": "s",
    "oracle.exact_s": "s",
    "harness.self_s": "s",
    "harness.report_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "trace.main_layers_share": "frac",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # users run with compiled bytecode
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")  # keep writes in the checkout
    return env


@dataclass
class Child:
    """One finished child process tree."""

    wall_s: float
    cpu_s: float
    maxrss_mb: float
    error: str = ""


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, limit_s: float = 10.0) -> None:
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn(args: list[str], work: Path, label: str, timeout_s: float) -> Child:
    """Run ``python args...`` in its own session; time it and reap the tree."""
    err_path = work / f"{label}.err"
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(work / f"{label}.out"),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], _child_env(),
                         file_actions=actions, setsid=True)
    timer = threading.Timer(timeout_s, _kill_group, (pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    _kill_group(pid)  # the tree is normally gone already; never leave workers behind
    _wait_group_gone(pid)
    child = Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
        reason = "timed out" if code == -signal.SIGKILL else f"exit code {code}"
        child.error = f"{label}: {reason}: " + " | ".join(tail)
    return child


@dataclass
class Run:
    """One experiment run: its process tree, report bytes and gate result."""

    child: Child
    report: bytes = b""
    failures: list[str] = field(default_factory=list)
    layers: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


def run_experiment(wl: Workload, config_seed: int, workers: int, work: Path, label: str,
                   timeout_s: float, traced: bool = False) -> Run:
    cfg, report, layers = (work / f"{label}.{ext}" for ext in ("cfg", "json", "layers.json"))
    cfg.write_text(wl.config_text(config_seed, workers))
    if traced:
        args = [str(HERE / "tracing.py"), "--config", str(cfg), "--json", str(report),
                "--out", str(layers)]
    else:
        args = ["-m", "permcycles", "experiment", "--config", str(cfg), "--json", str(report)]
    run = Run(spawn(args, work, label, timeout_s))
    if run.child.error:
        run.failures.append(run.child.error)
        return run
    run.report = report.read_bytes()
    expected = dict(wl.shape, seed=config_seed)
    run.failures += [f"{label}: {f}" for f in check_report(json.loads(run.report), expected)]
    if traced:
        run.layers = json.loads(layers.read_text())
    return run


class Session:
    """Counts every program run of one call and keeps its deadline."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl = wl
        self.work = work
        self.seeds = wl.config_seeds(seed, 10_000)
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def timeout(self) -> float:
        return max(1.0, min(CHILD_TIMEOUT_S, CALL_LIMIT_S - self.elapsed()))

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures += failures

    def experiment(self, rep: int, workers: int, label: str, traced: bool = False) -> Run:
        run = run_experiment(self.wl, self.seeds[rep], workers, self.work, label,
                             self.timeout(), traced)
        self.record(run.failures)
        return run

    def same_report(self, a: Run, b: Run, what: str) -> None:
        """Count ``b`` as failed when its report differs from ``a``'s."""
        if a.ok and b.ok and a.report != b.report:
            self.failed += 1
            self.failures.append(f"{what}: reports differ")


class Window:
    """The measuring window: the first repetition always runs; another starts
    only if one more like the last would end inside ``seconds``."""

    def __init__(self, seconds: float, session: Session):
        self.end = time.perf_counter() + seconds
        self.session = session
        self.started = 0

    def another(self, last_s: float) -> bool:
        fits = time.perf_counter() + last_s <= self.end
        go = self.started == 0 or (fits and self.session.elapsed() < LAST_START_S)
        self.started += go
        return go


def measure(s: Session, seconds: float) -> dict:
    wl = s.wl
    # untimed, and first: it also compiles the bytecode the timed runs load
    cross = s.experiment(0, wl.other_workers(), "cross")

    setups = []
    spent = 0.0
    for i in range(SETUP_MAX_REPS):
        if i >= SETUP_MIN_REPS and spent >= SETUP_BUDGET_S:
            break
        child = spawn(["-c", SETUP_CODE, wl.shape["weights"], str(wl.shape["n"])],
                      s.work, f"setup{i}", s.timeout())
        s.record([child.error] if child.error else [])
        spent += child.wall_s
        if not child.error:
            setups.append(child.wall_s)

    reps: list[Run] = []
    window = Window(seconds, s)
    while window.another(reps[-1].child.wall_s if reps else 0.0):
        reps.append(s.experiment(len(reps), wl.workers, f"rep{len(reps)}"))
    s.same_report(cross, reps[0], f"workers={wl.other_workers()} vs workers={wl.workers}")

    good = [r.child for r in reps if r.ok]
    if not good or not setups:
        return {}
    fastest = min(good, key=lambda c: c.wall_s)
    return {
        "run_s": fastest.wall_s,
        "draws_per_s": wl.replicates / fastest.wall_s,
        "cpu_s": min(c.cpu_s for c in good),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(c.maxrss_mb for c in good),
        "ok_frac": (s.attempted - s.failed) / s.attempted,
        "repetitions": len(reps),
        "median_run_s": statistics.median(c.wall_s for c in good),
        "median_cpu_s": statistics.median(c.cpu_s for c in good),
    }


def main_layers_share(wl: Workload, layer_self_s: dict) -> float:
    total = sum(layer_self_s.values())
    return sum(layer_self_s[name] for name in wl.main_layers) / total


def trace(s: Session, seconds: float) -> dict:
    wl = s.wl
    plain: list[Run] = []
    traced: list[Run] = []
    window = Window(seconds, s)
    while window.another(plain[-1].child.wall_s + traced[-1].child.wall_s if traced else 0.0):
        i = len(traced)
        plain.append(s.experiment(i, 1, f"plain{i}"))
        traced.append(s.experiment(i, 1, f"traced{i}", traced=True))
        s.same_report(plain[-1], traced[-1], "traced vs untraced")
    if wl.workers != 1:
        cross = s.experiment(0, wl.workers, "cross")
        s.same_report(plain[0], cross, f"workers={wl.workers} vs workers=1")

    plain_ok = [r for r in plain if r.ok]
    traced_ok = [r for r in traced if r.ok]
    if not plain_ok or not traced_ok:
        return {}
    out = {name: statistics.median(r.layers["metrics"][name] for r in traced_ok)
           for name in traced_ok[0].layers["metrics"]}
    out["trace.overhead_s"] = (statistics.median(r.child.wall_s for r in traced_ok)
                               - statistics.median(r.child.wall_s for r in plain_ok))
    shares = [main_layers_share(wl, r.layers["layer_self_s"]) for r in traced_ok]
    out["trace.main_layers_share"] = statistics.median(shares)
    layer_self = {layer: statistics.median(r.layers["layer_self_s"][layer] for r in traced_ok)
                  for layer in traced_ok[0].layers["layer_self_s"]}
    out["layer_self_s"] = layer_self
    out["span_names"] = sorted({n for r in traced_ok for n in r.layers["span_names"]})
    out["repetitions"] = len(traced)
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload; returns the result object plus the raw figures."""
    if not (ROOT / "src" / "permcycles" / "__init__.py").is_file():
        raise SystemExit(f"error: {ROOT / 'src' / 'permcycles'} not found; "
                         "run from a checkout of the repository")
    wl = WORKLOADS[name]
    BUILD.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=BUILD) as tmp:
        s = Session(wl, seed, Path(tmp))
        raw = trace(s, seconds) if traced else measure(s, seconds)
    if not raw:
        raise SystemExit("error: no repetition succeeded:\n  " + "\n  ".join(s.failures))
    units = PER_LAYER if traced else END_TO_END
    result = {
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": raw[k], "unit": u} for k, u in units.items()},
    }
    return {"result": result, "raw": raw, "failures": s.failures}


def print_metrics(result: dict) -> None:
    """Print each metric by name with its unit, then the failed fraction."""
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_frac':34s} {result['failed'] / result['attempted']:>14.6g} frac")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result, raw = out["result"], out["raw"]
    for failure in out["failures"]:
        print(f"FAILED {failure}")
    print(f"{args.workload}: {raw['repetitions']} repetitions")
    print_metrics(result)
    for name in ("median_run_s", "median_cpu_s"):
        if name in raw:
            print(f"  {name:34s} {raw[name]:>14.6g} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
