"""Check that the shipped configs still give, bit for bit, the reports they gave before.

Runs every ``scripts/configs/*.cfg`` in process at 1 and at 2 workers and
compares SHA-256 digests of its JSON report, its stdout summary and its
replicate CSV with the ``shipped_configs`` section of
``tests/data/report_digests.json``.  Prints one line per run and exits 1 if
any digest differs or is missing.  ``--write`` rewrites that section from
this checkout instead; the file's ``workloads`` section belongs to
``tests/test_report_digests.py``, which shares :func:`report_digests`.

Example:
    python3 scripts/check_reports.py
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DIGESTS = REPO / "tests" / "data" / "report_digests.json"
SECTION = "shipped_configs"
sys.path.insert(0, str(REPO / "src"))

from permcycles import ExperimentConfig, run_experiment  # noqa: E402
from permcycles.harness import write_replicates_csv  # noqa: E402


def report_digests(cfg: ExperimentConfig) -> dict:
    """SHA-256 of the JSON report, the stdout summary and the replicate CSV of one run."""
    report = run_experiment(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "replicates.csv"
        write_replicates_csv(report, path)
        texts = {
            "json": report.to_json().encode(),
            "stdout": (report.summary() + "\n").encode(),  # what `permcycles experiment` prints
            "csv": path.read_bytes(),
        }
    return {name: hashlib.sha256(data).hexdigest() for name, data in texts.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite the {SECTION} section instead of checking it")
    args = parser.parse_args()
    stored = json.loads(DIGESTS.read_text())
    got = {}
    for path in sorted((REPO / "scripts" / "configs").glob("*.cfg")):
        cfg = ExperimentConfig.from_file(path)
        for workers in (1, 2):
            got[f"{path.name}@{workers}"] = report_digests(dataclasses.replace(cfg, workers=workers))
    if args.write:
        stored[SECTION] = got
        DIGESTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(got)} runs to {DIGESTS.relative_to(REPO)}")
        return 0
    want = stored.get(SECTION, {})
    names = sorted(set(got) | set(want))
    bad = [name for name in names if got.get(name) != want.get(name)]
    for name in names:
        print(f"{'DIFF' if name in bad else 'ok  '} {name}")
    print(f"{len(bad)} of {len(names)} runs differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
