"""End-to-end checks of the command-line entry point."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permcycles import (
    PermutationSampler,
    RngStream,
    exact_statistic_distribution,
    norm_constants,
    parse_weights,
)
from permcycles import cli, harness
from permcycles.cli import main

# every name and alias of the README's statistic table, with its canonical selector
README_STATISTICS = {
    "count:2": "count:2", "sum:2": "sum:2", "S1": "sum:1",
    "min_range:2": "min_range:2", "minrange:2": "min_range:2",
    "max_range:2": "max_range:2", "maxrange:2": "max_range:2",
    "min_fixed": "min_fixed", "m": "min_fixed", "max_fixed": "max_fixed", "M": "max_fixed",
    "min_spacing": "min_spacing", "delta": "min_spacing",
    "max_spacing": "max_spacing", "Delta": "max_spacing", "cycle_type": "cycle_type",
}


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- sample


def test_sample_cycles_format(capsys):
    code, out, err = _run(
        capsys, "sample", "--weights", "ewens:2", "--n", "6", "--count", "4", "--seed", "9"
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        assert line.startswith("(") and line.endswith(")")
        labels = sorted(int(v) for v in line.replace("(", " ").replace(")", " ").split())
        assert labels == [1, 2, 3, 4, 5, 6]


def test_sample_oneline_format_and_determinism(capsys):
    argv = ["sample", "--weights", "uniform", "--n", "5", "--count", "3",
            "--seed", "4", "--format", "oneline"]
    code, out1, _ = _run(capsys, *argv)
    assert code == 0
    for line in out1.strip().splitlines():
        assert sorted(int(v) for v in line.split()) == [1, 2, 3, 4, 5]
    _, out2, _ = _run(capsys, *argv)
    assert out1 == out2


def test_sample_prints_fresh_per_replicate_stream_draws(capsys):
    code, out, _ = _run(
        capsys, "sample", "--weights", "ewens:2", "--n", "7", "--count", "5", "--seed", "9"
    )
    assert code == 0
    ws = parse_weights("ewens:2")
    sampler = PermutationSampler(ws, norm_constants(ws, 7))
    want = [sampler.sample(7, RngStream(9, (0, i))).cycles for i in range(5)]
    assert out.splitlines() == [
        "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) for cycles in want
    ]


# -------------------------------------------------------------------- stats


def test_stats_header_and_rows(capsys):
    code, out, err = _run(
        capsys, "stats", "--weights", "uniform", "--n", "8", "--count", "5",
        "--k-max", "3",
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "replicate,C_1,C_2,C_3,S_1,S_2,S_3,r_2,r_3,R_2,R_3,m,M,delta,Delta"
    assert len(lines) == 6
    for i, line in enumerate(lines[1:]):
        vals = [int(v) for v in line.split(",")]
        assert vals[0] == i
        # partition identity: sum over k of k*C_k <= n, with equality at k_max >= n
        assert vals[1] + 2 * vals[2] + 3 * vals[3] <= 8


def test_stats_emit_subset(capsys):
    code, out, _ = _run(
        capsys, "stats", "--weights", "uniform", "--n", "6", "--count", "2",
        "--k-max", "2", "--emit", "counts,fixed",
    )
    assert code == 0
    assert out.splitlines()[0] == "replicate,C_1,C_2,m,M,delta,Delta"


def test_stats_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = _run(
        capsys, "stats", "--weights", "ewens:1", "--n", "5", "--count", "3",
        "--emit", "sums", "--k-max", "2", "--out", str(target),
    )
    assert code == 0 and out == ""
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "replicate,S_1,S_2"
    assert len(lines) == 4


def test_stats_k_max_zero_prints_nothing(capsys):
    code, out, err = _run(
        capsys, "stats", "--weights", "uniform", "--n", "4", "--k-max", "0", "--emit", "counts"
    )
    assert code == 2 and out == ""
    assert "k_max" in err


def test_stats_bad_emit_group(capsys):
    code, _, err = _run(
        capsys, "stats", "--weights", "uniform", "--n", "4", "--emit", "counts,zebras"
    )
    assert code == 2
    assert "zebras" in err


@pytest.mark.parametrize("command", ["sample", "stats"])
def test_negative_count_is_an_error(capsys, command):
    code, out, err = _run(
        capsys, command, "--weights", "ewens:2", "--n", "9", "--count", "-1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "count" in err


@pytest.mark.parametrize("command,lines", [("sample", 0), ("stats", 1)])
def test_zero_count_draws_nothing(capsys, command, lines):
    code, out, err = _run(
        capsys, command, "--weights", "ewens:2", "--n", "9", "--count", "0"
    )
    assert code == 0 and err == ""
    assert len(out.splitlines()) == lines


# -------------------------------------------------------------------- exact


def test_exact_count_distribution(capsys):
    code, out, err = _run(
        capsys, "exact", "--weights", "uniform", "--n", "3", "--statistic", "count:1"
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "value,probability"
    table = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
    assert table == {"0": pytest.approx(2 / 6), "1": pytest.approx(3 / 6), "3": pytest.approx(1 / 6)}


def test_exact_cycle_type_labels(capsys):
    code, out, _ = _run(
        capsys, "exact", "--weights", "ewens:2", "--n", "4", "--statistic", "cycle_type"
    )
    assert code == 0
    lines = out.strip().splitlines()[1:]
    labels = [row.split(",")[0] for row in lines]
    assert "1+1+2" in labels
    assert "1+1+1+1" in labels
    assert "4" in labels
    assert math.fsum(float(row.split(",")[1]) for row in lines) == pytest.approx(1.0)


@pytest.mark.parametrize("name", README_STATISTICS)
def test_exact_accepts_every_statistic_name(capsys, name):
    code, out, err = _run(
        capsys, "exact", "--weights", "ewens:1.5", "--n", "4", "--statistic", name
    )
    assert code == 0 and err == ""
    dist = exact_statistic_distribution(parse_weights("ewens:1.5"), 4, README_STATISTICS[name])
    labels = ["+".join(map(str, v)) if isinstance(v, tuple) else str(v) for v in dist.support]
    want = [f"{v},{float(p)!r}" for v, p in zip(labels, dist.probabilities)]
    assert out.splitlines() == ["value,probability"] + want


@pytest.mark.parametrize("name, message", [
    ("minrange:x", "needs an integer cycle length"),
    ("sum:0", "k >= 1"),
    ("maxrange:0", "k >= 2"),
    ("median", "unknown statistic"),
])
def test_exact_rejects_a_malformed_statistic(capsys, name, message):
    code, out, err = _run(
        capsys, "exact", "--weights", "uniform", "--n", "3", "--statistic", name
    )
    assert code == 2 and out == ""
    assert message in err


def test_exact_rejects_large_n(capsys):
    code, _, err = _run(
        capsys, "exact", "--weights", "uniform", "--n", "9", "--statistic", "count:1"
    )
    assert code == 2
    assert "8" in err


def test_exact_names_the_bound_at_a_large_n(capsys):
    # n! at n = 2000 has more digits than Python formats; the message must not need it
    code, out, err = _run(
        capsys, "exact", "--weights", "uniform", "--n", "2000", "--statistic", "count:1"
    )
    assert code == 2 and out == ""
    assert "n <= 8" in err


# -------------------------------------------------------------------- limit


def test_limit_cdf_theta_and_k_flags(capsys):
    code, out, err = _run(capsys, "limit", "cdf", "--law", "minrange", "--grid", "0.1:0.9:0.1",
                          "--theta", "1", "--k", "2")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "x,cdf"
    xs, fs = zip(*(map(float, row.split(",")) for row in lines[1:]))
    assert xs[0] == pytest.approx(0.1) and xs[-1] == pytest.approx(0.9)
    assert all(0.0 <= f <= 1.0 for f in fs)
    assert list(fs) == sorted(fs)


def test_limit_cdf_known_value(capsys):
    code, out, _ = _run(
        capsys, "limit", "cdf", "--law", "S1", "--theta", "1", "--grid", "1:1:1"
    )
    assert code == 0
    x, f = map(float, out.strip().splitlines()[1].split(","))
    assert x == 1.0
    # P(sum of Poisson(1)-many uniforms <= 1), frozen from an Irwin-Hall
    # convolution at 40 digits: 0.83861256712602581699
    assert f == pytest.approx(0.8386125671260258, abs=1e-12)


def test_limit_cdf_where_the_series_failed(capsys):
    # S1 at theta = 20 printed 0.788 and 0.0; Delta at theta = 50 exited 2
    code, out, _ = _run(
        capsys, "limit", "cdf", "--law", "S1", "--theta", "20", "--grid", "30:43:13"
    )
    assert code == 0
    fs = [float(row.split(",")[1]) for row in out.strip().splitlines()[1:]]
    assert fs == pytest.approx([0.9999999995640, 1.0], abs=1e-12)
    code, out, err = _run(
        capsys, "limit", "cdf", "--law", "Delta", "--theta", "50", "--grid", "0.005:0.01:0.005"
    )
    assert code == 0 and err == ""
    fs = [float(row.split(",")[1]) for row in out.strip().splitlines()[1:]]
    assert len(fs) == 2 and all(0.0 <= f <= 1e-60 for f in fs)


def test_limit_cdf_past_the_poisson_terms_exits_2(capsys):
    code, out, err = _run(
        capsys, "limit", "cdf", "--law", "delta", "--theta", "400", "--grid", "0.1:0.9:0.4"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: Poisson(400.0) terms r <= 500 miss")


def test_limit_cdf_missing_theta(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["limit", "cdf", "--law", "S1", "--grid", "0:1:0.5"])
    assert exc.value.code == 2
    assert "--theta" in capsys.readouterr().err


def test_limit_cdf_bad_grid(capsys):
    code, _, err = _run(
        capsys, "limit", "cdf", "--law", "S1", "--theta", "1", "--grid", "0:1"
    )
    assert code == 2
    assert "start:stop:step" in err


@pytest.mark.parametrize("grid, name", [
    ("nan:1:0.5", "start"), ("0:inf:1", "stop"), ("0:1:nan", "step"),
])
def test_limit_cdf_rejects_a_grid_that_is_not_finite(capsys, grid, name):
    code, out, err = _run(capsys, "limit", "cdf", "--law", "m", "--theta", "1", "--grid", grid)
    assert code == 2 and out == ""
    assert f"has a {name} that is not finite" in err


def test_limit_cdf_reports_a_grid_too_large_to_hold(capsys):
    # 10^15 points: numpy refuses the allocation at once, before touching any memory
    code, out, err = _run(capsys, "limit", "cdf", "--law", "m", "--theta", "1",
                          "--grid", "0:1e12:1e-3")
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_limit_cdf_unknown_law_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["limit", "cdf", "--law", "cauchy", "--theta", "1", "--grid", "0:1:0.5"])
    assert exc.value.code == 2


def test_limit_laplace_known_value(capsys):
    code, out, err = _run(
        capsys, "limit", "laplace", "--theta", "1", "--k", "1", "--t", "1,2"
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "t,laplace"
    t1, v1 = map(float, lines[1].split(","))
    assert t1 == 1.0
    assert v1 == pytest.approx(math.exp(-math.exp(-1.0)), abs=1e-14)
    assert len(lines) == 3


def test_limit_cdf_rejects_k_for_a_law_without_one(capsys):
    code, out, err = _run(
        capsys, "limit", "cdf", "--law", "m", "--theta", "1", "--k", "3", "--grid", "0:1:0.5"
    )
    assert code == 2 and out == ""
    assert "takes no cycle length" in err


def test_limit_laplace_bad_k_prints_nothing(capsys):
    code, out, err = _run(capsys, "limit", "laplace", "--theta", "1", "--k", "0", "--t", "1")
    assert code == 2 and out == ""
    assert "k must be >= 1" in err


def test_limit_laplace_bad_t(capsys):
    code, _, err = _run(capsys, "limit", "laplace", "--theta", "1", "--k", "1", "--t", "x")
    assert code == 2 and "not numeric" in err


def test_limit_laplace_rejects_a_nan_t(capsys):
    code, out, err = _run(capsys, "limit", "laplace", "--theta", "1", "--k", "1", "--t", "nan")
    assert code == 2 and out == ""
    assert "t must be >= 0" in err


@pytest.mark.parametrize("args", [
    ("cdf", "--law", "m", "--theta", "nan", "--grid", "0.5:0.5:0.1"),
    ("cdf", "--law", "delta", "--theta", "nan", "--grid", "0.5:0.5:0.1"),
    ("cdf", "--law", "S1", "--theta", "inf", "--grid", "0.5:0.5:0.1"),
    ("laplace", "--theta", "nan", "--k", "1", "--t", "1"),
], ids=["cdf-m-nan", "cdf-delta-nan", "cdf-S1-inf", "laplace-nan"])
def test_limit_rejects_a_theta_that_is_not_finite(capsys, args):
    # NaN slipped past a bare `theta < 0` test: these printed nan and exited 0
    code, out, err = _run(capsys, "limit", *args)
    assert code == 2 and out == ""
    assert "finite and >= 0" in err


# --------------------------------------------------------------- experiment


def test_experiment_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "kind = counts\n"
        "weights = ewens:1\n"
        "n = 30\n"
        "replicates = 80\n"
        "k_max = 2\n"
        "seed = 13\n"
    )
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "reps.csv"
    code, out, err = _run(
        capsys, "experiment", "--config", str(cfg),
        "--json", str(json_path), "--csv", str(csv_path),
    )
    assert code == 0 and err == ""
    assert "per_count.1.tv_distance" in out
    payload = json.loads(json_path.read_text())
    assert payload["config"]["replicates"] == 80
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "replicate,C_1,C_2"
    assert len(lines) == 81


def test_experiment_sweep_has_no_csv(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("kind = counts\nweights = ewens:1\nn = 10,20\nreplicates = 5\n")
    code, out, err = _run(capsys, "experiment", "--config", str(cfg),
                          "--csv", str(tmp_path / "reps.csv"))
    assert code == 2 and out == ""
    assert "--csv" in err
    assert not (tmp_path / "reps.csv").exists()
    code, out, err = _run(capsys, "experiment", "--config", str(cfg))
    assert code == 0 and err == ""
    assert "10.per_count.1.tv_distance" in out and "20.per_count.1.tv_distance" in out


def test_experiment_rejects_a_bad_workers_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("kind = counts\nweights = ewens:1\nn = 10\nreplicates = 5\n")
    code, out, err = _run(capsys, "experiment", "--config", str(cfg), "--workers", "-1")
    assert code == 2 and out == ""
    assert "workers must be >= 1" in err


def test_experiment_bad_config_line(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("kind = counts\nwat\n")
    code, _, err = _run(capsys, "experiment", "--config", str(cfg))
    assert code == 2
    assert ":2:" in err


@pytest.mark.parametrize("drop", ["kind", "weights", "n", "replicates"])
def test_experiment_config_without_a_required_key_exits_2(tmp_path, capsys, drop):
    keys = {"kind": "counts", "weights": "ewens:1", "n": "5", "replicates": "3"}
    del keys[drop]
    cfg = tmp_path / "short.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    code, out, err = _run(capsys, "experiment", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"{drop!r} is missing" in err
    assert "Traceback" not in err


def test_experiment_missing_config_file(tmp_path, capsys):
    code, _, err = _run(capsys, "experiment", "--config", str(tmp_path / "nope.cfg"))
    assert code == 2
    assert "error:" in err


# ------------------------------------------------------------------- errors


def test_bad_weight_spec_exits_2(capsys):
    code, _, err = _run(capsys, "sample", "--weights", "gauss:1", "--n", "4")
    assert code == 2
    assert err.startswith("error:")


def test_degenerate_model_exits_2(capsys):
    # theta_1 = 0 with zero tail leaves S_1 with no valid permutation
    code, _, err = _run(capsys, "sample", "--weights", "list:0;tail=zero", "--n", "1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("text, match", [
    ("kind = counts\nweights = ewens:1e12\nn = 5\nk_max = 1\nreplicates = 200\n",
     "pmf for 1-cycles needs"),
    ("kind = cdf\nstatistic = delta\nweights = ewens:400\nn = 3000\nreplicates = 200\n",
     "terms r <= 500 miss"),
])
def test_experiment_whose_limit_cannot_be_built_exits_2_before_drawing(
    tmp_path, capsys, monkeypatch, text, match
):
    def no_draws(*args):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr(harness, "_map_replicates", no_draws)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    code, out, err = _run(capsys, "experiment", "--config", str(cfg))
    assert code == 2 and out == ""
    assert match in err


def test_an_error_without_a_message_prints_its_type(capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError()

    monkeypatch.setattr(cli, "limit_cdf", out_of_memory)
    code, out, err = _run(capsys, "limit", "cdf", "--law", "S1", "--theta", "1", "--grid", "0:1:1")
    assert code == 2 and out == ""
    assert err == "error: MemoryError\n"


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_importing_the_cli_loads_no_scipy():
    # a fresh interpreter, since this one has scipy loaded by the suite; nor the
    # process pool, which only a parallel run needs, nor the metadata lookup
    code = ("import sys, permcycles.cli; "
            "print(sorted(m for m in sys.modules if m == 'importlib.metadata' or "
            "m.split('.')[0] in ('scipy', 'multiprocessing') or "
            "m.startswith('concurrent.futures.process')))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_a_small_run_loads_no_fft(tmp_path):
    # a table of at most weights._BASE steps runs no FFT product, so a
    # counts_n5-shaped run pays nothing for importing numpy.fft
    cfg = tmp_path / "small.cfg"
    cfg.write_text("kind = counts\nweights = ewens:1.5\nn = 5\nk_max = 3\n"
                   "compare = oracle\nreplicates = 200\n")
    code = ("import contextlib, io, sys; from permcycles.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main(['experiment', '--config', {str(cfg)!r}])\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('numpy.fft')))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "0 []"


def test_running_the_cli_needs_no_scipy(tmp_path):
    # a fresh interpreter in which any scipy import raises ImportError; the
    # configs reach the chi-square p-value (both compare modes) and the
    # Hurwitz zeta of a decaying tail (the avoidance run on poly:2,-0.5)
    configs = {
        "limit": "kind = counts\nweights = ewens:1.5\nn = 12\nreplicates = 300\nk_max = 2\n",
        "oracle": "kind = counts\nweights = ewens:1.5\nn = 5\nreplicates = 300\n"
                  "k_max = 2\ncompare = oracle\n",
        "avoid": "kind = avoidance\nweights = poly:2,-0.5\nn = 40\nreplicates = 50\n"
                 "limit_draws = 200\nboxes = box:k=1;0,0.5;box:k=2;0,1;0.5,1\n",
    }
    runs = [["experiment", "--config", str(tmp_path / f"{name}.cfg")] for name in configs]
    runs += [["limit", "cdf", "--law", "minrange", "--theta", "1", "--k", "2",
              "--grid", "0:1:0.25"],
             ["exact", "--weights", "uniform", "--n", "4", "--statistic", "cycle_type"]]
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    code = ("import contextlib, io, sys; sys.modules['scipy'] = None; "
            "from permcycles.cli import main; "
            "codes = []\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(main(argv))\n"
            "print(codes)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == str([0] * len(runs)), out.stderr
