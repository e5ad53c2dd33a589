"""Statistical correctness gates for experiment reports.

A report from a correct program fails its gate with probability at most
1e-6.  Each gate runs at most three tests, so each test gets a share of that
budget:

- counts: every ``per_count`` chi-square p-value must be at least 1e-10.
  The nominal budget per count is 2e-7; the threshold sits far below it
  because the chi-square approximation understates the far tail when a
  pooled cell expects only 5 to 10 draws.
- cdf: ``grid_ks`` must stay within the DKW band at alpha = 4e-7, and every
  atom's empirical mass within 5.5 binomial standard errors of the theory.
- avoidance: for the empirical channel and the limit-simulation channel,
  |p_hat - e^(-lambda)| / se must stay below 5.5, with se taken from the
  theory's probability.

Each function returns the list of failed checks; an empty list passes.
"""

from __future__ import annotations

import math

CHI2_P_MIN = 1e-10
DKW_ALPHA = 4e-7
Z_MAX = 5.5


def dkw_band(replicates: int, alpha: float = DKW_ALPHA) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * replicates))


def _counts(results: dict) -> list[str]:
    failures = []
    for k, entry in sorted(results["per_count"].items()):
        p = entry["chi_square"]["p_value"]
        if entry["flag"] != "ok" or p is None:
            failures.append(f"count {k}: chi-square not computable ({entry['flag']})")
        elif p < CHI2_P_MIN:
            failures.append(f"count {k}: chi-square p = {p:.3g} < {CHI2_P_MIN:g}")
    return failures


def _cdf(results: dict) -> list[str]:
    failures = []
    band = dkw_band(results["replicates"])
    if not results["grid_ks"] <= band:
        failures.append(f"grid_ks {results['grid_ks']:.4g} > DKW band {band:.4g}")
    for loc, atom in sorted(results["atoms"].items()):
        z = atom["abs_error"] / atom["binomial_se"]
        if not z <= Z_MAX:
            failures.append(f"atom at {loc}: z = {z:.2f} > {Z_MAX}")
    return failures


def _avoidance(results: dict) -> list[str]:
    failures = []
    p = results["limit_probability"]
    for channel, size_key in (("empirical", "replicates"), ("limit_simulation", "draws")):
        ch = results[channel]
        se = math.sqrt(p * (1.0 - p) / ch[size_key])
        z = abs(ch["probability"] - p) / se
        if not z <= Z_MAX:
            failures.append(f"{channel}: z = {z:.2f} > {Z_MAX}")
    return failures


_GATES = {"counts": _counts, "cdf": _cdf, "avoidance": _avoidance}


def check_report(report: dict, config: dict) -> list[str]:
    """Failed checks of one parsed JSON report against the config that made it."""
    echoed = report["config"]
    for key in ("kind", "weights", "n", "replicates", "seed"):
        if echoed[key] != config[key]:
            return [f"report config {key} = {echoed[key]!r}, expected {config[key]!r}"]
    if report["results"].get("replicates", echoed["replicates"]) != config["replicates"]:
        return ["report replicate count differs from the config"]
    return _GATES[config["kind"]](report["results"])
