"""Each workload's gate passes the program's report and rejects one built
against a deliberately wrong theory.

The reports come from the real harness on the benchmark's own configs, run
in this process at one worker; only the theory the harness compares with is
replaced.
"""

import json
import math

import numpy as np
import pytest

from gates import check_report
from permcycles import harness
from permcycles.oracle import ExactDistribution
from workloads import WORKLOADS


def _report(name: str) -> tuple[dict, dict]:
    wl = WORKLOADS[name]
    config = dict(wl.shape, seed=wl.config_seeds(0, 1)[0])
    cfg = harness.ExperimentConfig.from_mapping(dict(config, workers=1))
    return json.loads(harness.run_experiment(cfg).to_json()), config


def _tilted(dist: ExactDistribution, factor: float) -> ExactDistribution:
    """The pmf exponentially tilted until its mean is ``factor`` times larger."""
    support = np.asarray(dist.support, dtype=float)
    p = np.asarray(dist.probabilities, dtype=float)
    target = factor * float(support @ p)
    lo, hi = 0.0, 5.0
    for _ in range(100):
        t = (lo + hi) / 2
        q = p * np.exp(t * support)
        q /= q.sum()
        lo, hi = (t, hi) if support @ q < target else (lo, t)
    return ExactDistribution(dist.support, q)


def _shift_oracle_mean(monkeypatch, factor):
    exact = harness.exact_statistic_distribution
    monkeypatch.setattr(harness, "exact_statistic_distribution",
                        lambda *a: _tilted(exact(*a), factor))


def _scale_poisson_means(monkeypatch, factor):
    pmf = harness._poisson_pmf_dict
    monkeypatch.setattr(harness, "_poisson_pmf_dict",
                        lambda theta_k, k: pmf(factor * theta_k, k))


def _shift_spacing_theta(monkeypatch, factor):
    law = harness._law_for_statistic

    def shifted(ws, statistic):
        name, theta, k = law(ws, statistic)
        return name, factor * theta, k

    monkeypatch.setattr(harness, "_law_for_statistic", shifted)


def _scale_intensity(monkeypatch, factor):
    lam = harness.intensity
    monkeypatch.setattr(harness, "intensity", lambda ws, union: factor * lam(ws, union))


# counts_n20k draws only 60 replicates, so its chi-square gate has power
# only against gross errors; the 10% mean shift is caught on counts_n5.
WRONG_THEORIES = [
    ("counts_n5", _shift_oracle_mean, 1.1),
    ("counts_n20k", _scale_poisson_means, 3.0),
    ("spacing_cdf_n1k", _shift_spacing_theta, 1.2),
    ("avoidance_k3", _scale_intensity, 1.1),
]


@pytest.mark.parametrize("name, patch, factor", WRONG_THEORIES,
                         ids=[w[0] for w in WRONG_THEORIES])
def test_gate_passes_program_and_rejects_wrong_theory(monkeypatch, name, patch, factor):
    report, config = _report(name)
    assert check_report(report, config) == []

    patch(monkeypatch, factor)
    wrong, _ = _report(name)
    assert wrong["config"] == report["config"]
    assert check_report(wrong, config) != []


def test_tilt_moves_the_mean_by_the_factor():
    dist = ExactDistribution((0, 1, 2, 3), (0.4, 0.3, 0.2, 0.1))
    assert math.isclose(_tilted(dist, 1.1).mean(), 1.1 * dist.mean(), rel_tol=1e-9)


def test_report_for_another_config_is_rejected():
    report, config = _report("counts_n5")
    assert check_report(report, dict(config, seed=config["seed"] + 1)) != []
