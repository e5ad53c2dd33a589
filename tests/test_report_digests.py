"""Reports of the four benchmark workload shapes, pinned bit for bit.

Each case runs one config in process and compares SHA-256 digests of its
JSON report, its stdout summary and its replicate CSV with the ``workloads``
section of ``tests/data/report_digests.json``.  A change that moves one
draw, one statistic or the formatting of one number fails here.

Rules:

- The digests pin numpy 2.4.6's ``Generator``.  Under NEP 19 its methods may
  change their streams between numpy versions, so a numpy upgrade that moves
  a digest is a stream change and is recorded like one.
- A change that alters the draws on purpose bumps ``SAMPLER_VERSION`` or
  ``LIMIT_STREAM_VERSION``, regenerates the digests (a failing case prints
  its new entry) and says so in CHANGES.md.  Nothing else edits the file.
- The eight shipped configs take too long for this suite; the file's
  ``shipped_configs`` section is checked by ``scripts/check_reports.py``,
  which computes digests with the same function.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from permcycles import ExperimentConfig

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "check_reports", _ROOT / "scripts" / "check_reports.py")
check_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_reports)

# twelve overlapping level-3 boxes, then one level-1 and one level-2 box
_BOXES = ";".join(
    f"box:k=3;{0.02 * a:.2f},{0.5 + 0.02 * a:.2f};"
    f"{0.03 * a:.2f},{0.6 + 0.02 * a:.2f};"
    f"{0.01 * a:.2f},{0.7 + 0.01 * a:.2f}"
    for a in range(12)
) + ";box:k=1;0,0.1;box:k=2;0.5,1;0,0.5"

CONFIGS = {
    "counts_n5": "kind = counts\nweights = ewens:1.5\nn = 5\nk_max = 3\ncompare = oracle\n"
                 "replicates = 20000\nseed = 1101\n",
    "counts_n20k": "kind = counts\nweights = poly:1,0.5\nn = 20000\nk_max = 3\n"
                   "replicates = 60\nseed = 1102\n",
    "spacing_cdf_n1k": "kind = cdf\nweights = uniform\nstatistic = delta\nn = 1000\n"
                       "replicates = 4000\nmixture_draws = 20000\nseed = 1103\n",
    "avoidance_k3": "kind = avoidance\nweights = ewens:1.5\nn = 1000\nreplicates = 1000\n"
                    f"limit_draws = 20000\nboxes = {_BOXES}\nseed = 1104\n",
}
CASES = [(name, 1) for name in CONFIGS] + [("spacing_cdf_n1k", 2)]


@pytest.mark.parametrize("name, workers", CASES, ids=[f"{n}@{w}" for n, w in CASES])
def test_report_digests_hold(tmp_path, name, workers):
    path = tmp_path / f"{name}.cfg"
    path.write_text(CONFIGS[name] + f"workers = {workers}\n")
    got = check_reports.report_digests(ExperimentConfig.from_file(path))
    want = json.loads(check_reports.DIGESTS.read_text())["workloads"][f"{name}@{workers}"]
    assert got == want, f"new entry: {json.dumps({f'{name}@{workers}': got})}"
