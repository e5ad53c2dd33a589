"""Experiment harness: configs, reports, determinism, self-consistency."""

import itertools
import json
import math

import numpy as np
import pytest

from permcycles import harness, oracle
from permcycles import (
    ExperimentConfig,
    ExperimentReport,
    Permutation,
    PermutationSampler,
    RngStream,
    count_in,
    norm_constants,
    parse_boxes,
    parse_weights,
    point_measure,
    run_avoidance_experiment,
    run_cdf_experiment,
    run_counts_experiment,
    run_experiment,
)
from permcycles.cycle_stats import STATISTICS
from permcycles.harness import _poisson_pmf_dict, write_replicates_csv
from permcycles.point_process import limit_block_counts
from permcycles.sampler import SAMPLER_VERSION


def _cfg(**kwargs):
    base = dict(kind="counts", weights="ewens:2", n=40, replicates=50, seed=7)
    base.update(kwargs)
    return ExperimentConfig(**base)


# ------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(kind="bogus")
    with pytest.raises(ValueError):
        _cfg(compare="exactly")
    with pytest.raises(ValueError):
        _cfg(n=0)
    with pytest.raises(ValueError):
        _cfg(replicates=0)
    with pytest.raises(ValueError):
        _cfg(seed=-1)
    with pytest.raises(ValueError):
        _cfg(workers=0)
    with pytest.raises(ValueError):
        _cfg(k_max=0)
    with pytest.raises(ValueError):
        _cfg(grid_points=5)
    with pytest.raises(ValueError):
        _cfg(mixture_draws=-1)
    with pytest.raises(ValueError):
        _cfg(kind="cdf")  # statistic missing
    with pytest.raises(ValueError):
        _cfg(weights="gauss:1")  # weight grammar failure surfaces at once
    with pytest.raises(ValueError):
        _cfg(kind="avoidance", boxes="box:k=2;0,1")  # malformed union


def test_config_from_mapping():
    cfg = ExperimentConfig.from_mapping(
        {"kind": "counts", "weights": "uniform", "n": "25", "replicates": "10"}
    )
    assert cfg.n == 25 and cfg.replicates == 10
    with pytest.raises(ValueError) as err:
        ExperimentConfig.from_mapping(
            {"kind": "counts", "weights": "uniform", "n": 5, "replicates": 5, "colour": "red"}
        )
    assert "colour" in str(err.value)
    with pytest.raises(ValueError) as err:
        ExperimentConfig.from_mapping(
            {"kind": "counts", "weights": "uniform", "n": "five", "replicates": 5}
        )
    assert "'n'" in str(err.value)


def test_config_from_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# counts demo\n"
        "\n"
        "kind = counts\n"
        "weights = poly:1,0.5\n"
        "n = 30\n"
        "replicates = 12\n"
        "k_max = 2\n"
    )
    cfg = ExperimentConfig.from_file(path)
    assert cfg.kind == "counts"
    assert cfg.weights == "poly:1,0.5"
    assert cfg.n == 30 and cfg.replicates == 12 and cfg.k_max == 2

    bad = tmp_path / "bad.cfg"
    bad.write_text("kind=counts\nnot a key value line\n")
    with pytest.raises(ValueError) as err:
        ExperimentConfig.from_file(bad)
    assert ":2:" in str(err.value)


def test_config_echo_hides_workers():
    echo = _cfg(workers=8).echo()
    assert "workers" not in echo
    assert echo["kind"] == "counts"
    assert echo["weights"] == "ewens:2"


# ------------------------------------------------------------------- counts


def test_counts_experiment_report_shape():
    cfg = _cfg(n=60, replicates=400, k_max=3)
    report = run_counts_experiment(cfg)
    assert set(report.results["per_count"]) == {"1", "2", "3"}
    for k in ("1", "2", "3"):
        entry = report.results["per_count"][k]
        assert entry["flag"] == "ok"
        assert 0.0 <= entry["tv_distance"] <= 1.0
        assert entry["chi_square"]["p_value"] > 1e-4
        theta_over_k = 2.0 / int(k)
        se = math.sqrt(theta_over_k / cfg.replicates)
        assert abs(entry["empirical_mean"] - entry["theory_mean"]) < 5 * se
        assert entry["theory_mean"] == pytest.approx(theta_over_k)
    assert set(report.results["correlations"]) == {"C_1_C_2", "C_1_C_3", "C_2_C_3"}
    assert len(report.replicates) == 400
    assert report.csv_columns == ["C_1", "C_2", "C_3"]

    payload = json.loads(report.to_json())
    assert set(payload) == {"config", "metadata", "results"}
    assert "workers" not in payload["config"]
    assert payload["metadata"]["weights"] == "ewens:2.0"
    assert payload["metadata"]["sampler"] == SAMPLER_VERSION
    assert "no_fixed_point" in payload["metadata"]["conventions"]

    text = report.summary()
    assert "per_count.1.tv_distance" in text
    assert "mode" in text


def test_counts_single_replicate_is_flagged():
    report = run_counts_experiment(_cfg(replicates=1, k_max=2))
    for entry in report.results["per_count"].values():
        assert entry["flag"] == "insufficient-sample"
        assert entry["chi_square"]["p_value"] is None  # NaN serialized as None
    assert report.results["correlations"]["C_1_C_2"] is None
    json.loads(report.to_json())  # still valid JSON


def test_counts_against_oracle_self_consistency():
    # sampler vs enumeration on S_6 at half a million draws
    cfg = _cfg(
        weights="ewens:1.5", n=6, replicates=500_000, compare="oracle", k_max=2, seed=3
    )
    report = run_counts_experiment(cfg)
    for entry in report.results["per_count"].values():
        assert entry["flag"] == "ok"
        assert entry["chi_square"]["p_value"] > 1e-3
        assert entry["tv_distance"] < 0.005


def _iterated_poisson_pmf(mean, tail_eps=1e-12):
    """Poisson pmf by the ratio p_j = p_{j-1} * mean / j, for small means only."""
    out, pmf, cum, j = {}, math.exp(-mean), 0.0, 0
    while True:
        out[j] = pmf
        cum += pmf
        if 1.0 - cum < tail_eps and j >= mean:
            return out
        j += 1
        pmf *= mean / j


def test_poisson_pmf_unchanged_for_small_means():
    for k in range(1, 7):
        ref = _iterated_poisson_pmf(1.5 / k)
        got = _poisson_pmf_dict(1.5, k)
        assert got.keys() == ref.keys()
        assert all(abs(got[j] - ref[j]) <= 1e-15 for j in ref)


def test_poisson_pmf_covers_large_means():
    # exp(-800) underflows, so a pmf started from p_0 = exp(-mean) is all zeros
    pmf = _poisson_pmf_dict(800.0, 1)
    assert math.fsum(pmf.values()) == pytest.approx(1.0, abs=1e-9)
    assert math.fsum(j * p for j, p in pmf.items()) == pytest.approx(800.0, rel=1e-6)
    with pytest.raises(ValueError):
        _poisson_pmf_dict(math.inf, 1)


def test_poisson_pmf_survives_rounding_at_a_mean_of_a_million():
    # j log(mean) carries ~1e-9 relative rounding here, more than the 1e-12 tail
    from scipy.stats import poisson

    mean = 1e6
    pmf = _poisson_pmf_dict(mean, 1)
    js = np.fromiter(pmf.keys(), dtype=np.int64)
    ps = np.fromiter(pmf.values(), dtype=float)
    assert math.fsum(ps) == pytest.approx(1.0, abs=1e-9)
    assert math.fsum(js * ps) == pytest.approx(mean, rel=1e-9)
    assert poisson.sf(js[-1], mean) < 1e-12 <= poisson.sf(js[-1] - 1, mean)
    bulk = np.abs(js - mean) <= 5e3
    assert np.allclose(ps[bulk], poisson.pmf(js[bulk], mean), rtol=1e-6, atol=0.0)


def test_counts_kind_guard():
    with pytest.raises(ValueError):
        run_counts_experiment(_cfg(kind="cdf", statistic="S1"))
    with pytest.raises(ValueError):
        run_avoidance_experiment(_cfg())
    with pytest.raises(ValueError):
        run_cdf_experiment(_cfg())


# ---------------------------------------------------------------- avoidance


def test_avoidance_empty_union_is_certain():
    cfg = _cfg(kind="avoidance", boxes="", replicates=100, n=30)
    report = run_avoidance_experiment(cfg)
    assert report.results["intensity"] == 0.0
    assert report.results["limit_probability"] == 1.0
    assert report.results["empirical"]["probability"] == 1.0
    assert report.results["limit_simulation"]["probability"] == 1.0


def test_avoidance_full_level_one():
    # avoiding all of level 1 = having no fixed point; limit e^{-theta_1}
    cfg = _cfg(
        kind="avoidance",
        weights="uniform",
        boxes="box:k=1;0,1",
        n=250,
        replicates=3000,
        seed=11,
        limit_draws=3000,
    )
    report = run_avoidance_experiment(cfg)
    want = math.exp(-1.0)
    emp = report.results["empirical"]
    assert emp["replicates"] == 3000
    assert abs(emp["probability"] - want) < 3 * emp["se"] + 0.01
    sim = report.results["limit_simulation"]
    assert sim["draws"] == 3000
    assert sim["truncation_level"] == 1
    assert sim["truncated_tail_mass"] == "infinite"
    assert abs(sim["probability"] - want) < 3 * sim["se"] + 0.01
    assert report.csv_columns == ["points_in_union"]


# ---------------------------------------------------------------------- cdf


def test_cdf_experiment_report_shape():
    cfg = _cfg(kind="cdf", weights="ewens:1", statistic="S1", n=150, replicates=800)
    report = run_cdf_experiment(cfg)
    res = report.results
    assert res["law"] == "S1"
    assert res["statistic"] == "S1"
    assert res["grid_ks"] < 0.1
    assert res["dkw_epsilon_95"] == pytest.approx(math.sqrt(math.log(40.0) / 1600.0))
    assert "0" in res["atoms"]
    atom = res["atoms"]["0"]
    assert atom["theory_mass"] == pytest.approx(math.exp(-1.0))
    assert atom["abs_error"] < 3 * atom["binomial_se"] + 0.02
    assert len(report.replicates) == 800


def test_cdf_forbidden_fixed_points_degenerate_law():
    # theta_1 = 0 means no fixed points ever: every draw reports the
    # (n+1)/n convention, the interior grid sees nothing, and the atom at 1
    # carries all the mass
    cfg = _cfg(
        kind="cdf", weights="list:0,1", statistic="m", n=51, replicates=200
    )
    report = run_cdf_experiment(cfg)
    res = report.results
    assert res["grid_ks"] == 0.0
    assert res["atoms"]["1"]["theory_mass"] == 1.0
    assert res["atoms"]["1"]["empirical_mass"] == 1.0


def test_cdf_statistic_without_closed_form():
    with pytest.raises(ValueError) as err:
        run_cdf_experiment(_cfg(kind="cdf", statistic="sum:2", n=50, replicates=20))
    assert "Laplace" in str(err.value)
    with pytest.raises(ValueError):
        run_cdf_experiment(_cfg(kind="cdf", statistic="median", n=50, replicates=20))


# every name and alias of the README's statistic table that has a limit law, with the law
_CDF_STATISTICS = {
    "S1": "S1", "sum:1": "S1",
    "min_range:2": "minrange", "minrange:2": "minrange",
    "max_range:3": "maxrange", "maxrange:3": "maxrange",
    "min_fixed": "m", "m": "m", "max_fixed": "M", "M": "M",
    "min_spacing": "delta", "delta": "delta", "max_spacing": "Delta", "Delta": "Delta",
}


@pytest.mark.parametrize("statistic", _CDF_STATISTICS)
def test_cdf_accepts_every_statistic_name(statistic):
    report = run_cdf_experiment(_cfg(kind="cdf", statistic=statistic, n=30, replicates=60,
                                     grid_points=10))
    assert report.results["statistic"] == statistic
    assert report.results["law"] == _CDF_STATISTICS[statistic]
    # the first name of the same law reads the same draws the same way
    first = next(s for s, law in _CDF_STATISTICS.items() if law == _CDF_STATISTICS[statistic])
    other = run_cdf_experiment(_cfg(kind="cdf", statistic=first, n=30, replicates=60,
                                    grid_points=10))
    assert other.replicates == report.replicates
    assert dict(other.results, statistic=statistic) == report.results


@pytest.mark.parametrize("statistic", ["count:2", "sum:2", "cycle_type"])
def test_cdf_rejects_a_statistic_without_a_limit_law(statistic):
    with pytest.raises(ValueError, match="has no closed-form limiting CDF"):
        _cfg(kind="cdf", statistic=statistic)


@pytest.mark.parametrize("statistic, message", [
    ("minrange:x", "needs an integer cycle length"),
    ("sum:0", "needs a cycle length k >= 1"),
    ("maxrange:0", "needs a cycle length k >= 2"),
    ("median", "unknown statistic"),
])
def test_cdf_config_rejects_a_malformed_statistic(statistic, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(kind="cdf", weights="uniform", n=10, replicates=5, statistic=statistic)


def test_cdf_extractors_agree_with_the_oracle_on_s5():
    n = 5
    for entry in STATISTICS:
        if entry.reducer is None:
            continue
        selector = entry.selector(entry.min_k)
        extract = harness._scaled_statistic_fn(selector, n)
        oracle_fn = oracle._parse_statistic(selector, n)
        for image in itertools.permutations(range(1, n + 1)):
            perm = Permutation.from_image(image)
            assert extract(perm) == oracle_fn(perm.cycles) / n, (selector, image)


def test_cdf_mixture_channel():
    cfg = _cfg(
        kind="cdf",
        weights="uniform",
        statistic="delta",
        n=300,
        replicates=1500,
        mixture_draws=4000,
        seed=21,
    )
    report = run_cdf_experiment(cfg)
    mix = report.results["mixture"]
    assert mix["draws"] == 4000
    assert mix["grid_ks_two_sample"] < 0.08
    assert abs(mix["atom_mass"] - math.exp(-1.0)) < 0.05


# ------------------------------------------------------------- determinism


def test_reports_identical_across_worker_counts():
    for kind_kwargs in (
        dict(kind="counts", n=30, replicates=240, k_max=2),
        dict(kind="cdf", statistic="M", n=80, replicates=240),
        dict(kind="avoidance", boxes="box:k=1;0,0.5", n=40, replicates=240),
    ):
        texts = []
        for workers in (1, 2, 8):
            report = run_experiment(_cfg(workers=workers, seed=5, **kind_kwargs))
            texts.append(report.to_json())
        assert texts[0] == texts[1] == texts[2]


def test_avoidance_limit_blocks_identical_across_worker_counts():
    # 5000 limit draws are one whole 4096-draw block and a short one
    boxes = "box:k=1;0,0.3;box:k=2;0.2,0.9;0.1,0.6;open=2;box:k=3;0,0.5;0.2,1;0,0.8"
    texts = [
        run_experiment(_cfg(kind="avoidance", boxes=boxes, n=40, replicates=120,
                            limit_draws=5000, workers=workers, seed=13)).to_json()
        for workers in (1, 2, 3)
    ]
    assert texts[0] == texts[1] == texts[2]
    payload = json.loads(texts[0])
    assert payload["metadata"]["limit_stream"] == harness.LIMIT_STREAM_VERSION
    # block b of the limit lane is drawn from the stream keyed (seed, 1, b)
    ws, union = parse_weights("ewens:2"), parse_boxes(boxes)
    counts = np.concatenate([limit_block_counts(ws, 3, union, 4096, RngStream(13, (1, 0))),
                             limit_block_counts(ws, 3, union, 904, RngStream(13, (1, 1)))])
    assert payload["results"]["limit_simulation"]["probability"] == float(np.mean(counts == 0))


def test_avoid_chunk_counts_match_count_in_per_draw(monkeypatch):
    # a small allowance makes the chunk count its held cycles many times
    monkeypatch.setattr(harness, "_HELD_VALUES", 64)
    ws = parse_weights("ewens:5")
    table = norm_constants(ws, 200)
    boxes = "box:k=1;0,0.3;box:k=2;0.2,0.9;0.1,0.6;open=2"
    got = harness._run_chunk(("avoid", ws, table, 21, boxes, 0, 300))
    sampler, union = PermutationSampler(ws, table), parse_boxes(boxes)
    want = [count_in(point_measure(sampler.sample(200, RngStream(21, (0, i)))), union)
            for i in range(300)]
    assert got == want
    assert min(want) == 0 and max(want) >= 2


def test_draws_mid_run_equal_fresh_stream_samples():
    ws = parse_weights("ewens:1.5")
    for n, start, stop in ((1, 3, 9), (5, 4093, 4120), (1000, 37, 49)):
        table = norm_constants(ws, n)
        sampler = PermutationSampler(ws, table)
        got = [perm.image for perm in harness._draws(ws, table, 17, start, stop)]
        want = [sampler.sample(n, RngStream(17, (0, i))).image for i in range(start, stop)]
        assert got == want


def test_limit_chunks_hold_whole_blocks():
    block = harness._LIMIT_BLOCK
    for total in (1, block, 5000, 10 * block + 5):
        for workers in (1, 2, 3, 8):
            bounds = harness._chunk_bounds(total, workers, block)
            assert bounds[0][0] == 0 and bounds[-1][1] == total
            assert all(e == s for (_, e), (s, _) in zip(bounds, bounds[1:]))
            assert all(s % block == 0 for s, _ in bounds)


def test_run_builds_its_table_once_in_the_caller(monkeypatch):
    builds = []
    build = harness.norm_constants

    def counted(ws, n_max):
        builds.append(n_max)
        return build(ws, n_max)

    monkeypatch.setattr(harness, "norm_constants", counted)
    for kind_kwargs in (
        dict(kind="counts", n=30, replicates=40, k_max=2),
        dict(kind="cdf", statistic="M", n=50, replicates=40),
        dict(kind="avoidance", boxes="box:k=1;0,0.5", n=40, replicates=40),
    ):
        texts = []
        for workers in (1, 2):
            builds.clear()
            texts.append(run_experiment(_cfg(workers=workers, seed=3, **kind_kwargs)).to_json())
            assert builds == [kind_kwargs["n"]]
        assert texts[0] == texts[1]


def test_rerun_is_reproducible():
    cfg = _cfg(n=25, replicates=100)
    assert run_experiment(cfg).to_json() == run_experiment(cfg).to_json()


# ------------------------------------------------------------------ exports


def test_write_replicates_csv(tmp_path):
    report = run_counts_experiment(_cfg(replicates=40, k_max=2))
    path = tmp_path / "reps.csv"
    write_replicates_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "replicate,C_1,C_2"
    assert len(lines) == 41
    first = lines[1].split(",")
    assert first[0] == "0"
    assert all(int(v) >= 0 for v in first[1:])


def test_report_json_round_trip(tmp_path):
    report = run_counts_experiment(_cfg(replicates=30, k_max=2))
    path = tmp_path / "report.json"
    report.write_json(path)
    payload = json.loads(path.read_text())
    assert payload["results"]["replicates"] == 30
    assert isinstance(report, ExperimentReport)
