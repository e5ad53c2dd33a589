"""The benchmark's tracer (``perfbench/tracing.py``) rebinds program names by string.

A rename in ``permcycles`` that the tracer still looks up would only show when
the benchmark runs; this runs the tracer on one small config per kind instead.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CONFIGS = {
    "counts": "kind = counts\nweights = ewens:1.5\nn = 30\nreplicates = 200\nk_max = 2\n",
    "avoidance": "kind = avoidance\nweights = uniform\nn = 50\nreplicates = 200\n"
                 "limit_draws = 500\nboxes = box:k=1;0,0.5;box:k=2;0,1;0.5,1;open=2\n",
    "cdf": "kind = cdf\nweights = ewens:1\nstatistic = delta\nn = 60\nreplicates = 200\n"
           "mixture_draws = 500\n",
}

# Rebinds every name the tracer wraps, then runs each config through its main.
TRACED = """
import sys
sys.path.insert(0, sys.argv[1])
import tracing
tracing.install(tracing.Tracer())
for cfg in sys.argv[2:]:
    rc = tracing.main(["--config", cfg, "--json", cfg + ".traced.json", "--out", cfg + ".metrics"])
    if rc != 0:
        sys.exit(f"tracing.main exited {rc} on {cfg}")
"""


def _run(args, env):
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_traced_runs_write_the_untraced_reports(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    paths = []
    for kind, text in CONFIGS.items():
        path = tmp_path / f"{kind}.cfg"
        path.write_text(text)
        paths.append(str(path))
        _run(["-m", "permcycles", "experiment", "--config", str(path), "--json", f"{path}.json"],
             env)
    _run(["-c", TRACED, str(ROOT / "perfbench"), *paths], env)
    for path in paths:
        assert Path(f"{path}.traced.json").read_bytes() == Path(f"{path}.json").read_bytes()
