"""Weight sequences, the grammar, and normalization constants."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from scipy.special import logsumexp, zeta
from hypothesis import strategies as st

from conftest import FAMILIES
from permcycles import (
    DegenerateModelError,
    WeightSequence,
    WeightSpecError,
    enumerate_h,
    norm_constants,
    cycle_length_distribution,
    parse_weights,
)
from permcycles import weights
from permcycles.weights import _hurwitz_zeta


# ---------------------------------------------------------------- sequences


def test_theta_values():
    assert WeightSequence.uniform().theta(7) == 1.0
    assert WeightSequence.ewens(2.0).theta(3) == 2.0
    assert WeightSequence.polynomial(1.0, -1.0).theta(4) == 0.25
    assert WeightSequence.polynomial(2.0, 0.5).theta(9) == pytest.approx(6.0)


def test_explicit_tails():
    w = WeightSequence.explicit((0.5, 2.0), tail="const")
    assert w.theta(1) == 0.5
    assert w.theta(2) == 2.0
    assert w.theta(50) == 2.0  # constant continuation of the last entry
    z = WeightSequence.explicit((0.5, 2.0), tail="zero")
    assert z.theta(2) == 2.0
    assert z.theta(3) == 0.0


def test_theta_rejects_bad_index():
    with pytest.raises(ValueError):
        WeightSequence.uniform().theta(0)
    with pytest.raises(ValueError):
        WeightSequence.ewens(1.0).theta(-3)


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        WeightSequence.ewens(-1.0)
    with pytest.raises(ValueError):
        WeightSequence.explicit((1.0, -0.5))
    with pytest.raises(ValueError):
        WeightSequence.polynomial(-2.0, 1.0)


@given(st.integers(min_value=1, max_value=200))
def test_uniform_ewens1_poly0_coincide(k):
    # Three spellings of the same model: theta_k = 1 for all k.
    assert WeightSequence.uniform().theta(k) == 1.0
    assert WeightSequence.ewens(1.0).theta(k) == 1.0
    assert WeightSequence.polynomial(1.0, 0.0).theta(k) == 1.0


def test_log_theta_array_matches_scalar():
    for _, ws in FAMILIES:
        arr = ws.log_theta_array(12)
        assert arr.shape == (13,)
        assert arr[0] == -np.inf
        for k in range(1, 13):
            t = ws.theta(k)
            if t == 0.0:
                assert arr[k] == -np.inf
            else:
                assert arr[k] == pytest.approx(math.log(t), rel=1e-14)


# ------------------------------------------------------------------ grammar


@pytest.mark.parametrize(
    "text,expect",
    [
        ("uniform", WeightSequence.uniform()),
        ("ewens:2", WeightSequence.ewens(2.0)),
        ("EWENS:0.5", WeightSequence.ewens(0.5)),
        ("poly:1,-0.5", WeightSequence.polynomial(1.0, -0.5)),
        ("  poly: 2 , 1 ", WeightSequence.polynomial(2.0, 1.0)),
        ("list:0.5,2,1", WeightSequence.explicit((0.5, 2.0, 1.0), tail="const")),
        ("list:0.5,2;tail=zero", WeightSequence.explicit((0.5, 2.0), tail="zero")),
        ("List:1,1 ; TAIL=CONST", WeightSequence.explicit((1.0, 1.0), tail="const")),
    ],
)
def test_parse_weights(text, expect):
    assert parse_weights(text) == expect


_SPECS = [
    "uniform", "ewens:2", "EWENS:0.5", "ewens:1.5", "ewens:1000", "ewens:1",
    "poly:1,-0.5", "  poly: 2 , 1 ", "poly:1,0.5", "poly:1,60", "poly:2,-1.5", "poly:1,0",
    "list:0.5,2,1", "list:0.5,2;tail=zero", "List:1,1 ; TAIL=CONST", "list:1,0",
    "list:2;tail=zero", "list:0,1", "list:0,0,1.5;tail=zero", "list:1e-200,1e200,1",
    "list:0;tail=zero",
]


def test_spec_string_round_trip():
    for _, ws in FAMILIES:
        assert parse_weights(ws.spec_string()) == ws
    for spec in _SPECS:
        ws = parse_weights(spec)
        again = parse_weights(ws.spec_string())
        assert again == ws and hash(again) == hash(ws)
        assert again.spec_string() == ws.spec_string()
        assert [again.theta(k) for k in range(1, 9)] == [ws.theta(k) for k in range(1, 9)]


@pytest.mark.parametrize("c", [1.05, 2.0, 40.4, 73.72])
def test_a_constant_list_tail_is_the_ewens_weight(c):
    # past the list, the same tail c * k**0 gives the same log weights, to the last bit
    listed = parse_weights(f"list:0.5,{c!r}").log_theta_array(50)
    assert listed[1] == math.log(0.5)
    assert np.array_equal(listed[3:], WeightSequence.ewens(c).log_theta_array(50)[3:])


@pytest.mark.parametrize(
    "text,token",
    [
        ("gamma:2", "gamma"),
        ("ewens", "ewens"),
        ("ewens:abc", "abc"),
        ("poly:1", "'1'"),
        ("poly:1,2,3", "1,2,3"),
        ("list:", "no values"),
        ("list:1,x", "'x'"),
        ("list:1,2;tail=linear", "linear"),
        ("ewens:-2", "-2"),
        ("ewens:inf", "inf"),
        ("poly:inf,1", "inf"),
        ("list:1,inf", "inf"),
        ("poly:1,nan", "nan"),
        ("poly:1,inf", "inf"),
    ],
)
def test_parse_weights_errors_name_the_token(text, token):
    with pytest.raises(WeightSpecError) as err:
        parse_weights(text)
    assert token in str(err.value)


# ---------------------------------------------- normalization constants h_n


def test_uniform_h_is_one():
    table = norm_constants(WeightSequence.uniform(), 50)
    for n in range(51):
        assert table.h(n) == pytest.approx(1.0, rel=1e-12)


def test_ewens_h_is_rising_factorial_over_factorial():
    # For constant weight theta the constants have the closed form
    # h_n = theta (theta+1) ... (theta+n-1) / n!.
    for theta in (0.5, 2.0, 3.7):
        table = norm_constants(WeightSequence.ewens(theta), 300)
        for n in (1, 2, 5, 17, 120, 300):
            expected = math.lgamma(theta + n) - math.lgamma(theta) - math.lgamma(n + 1)
            got = float(table.log_h[n])
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_frozen_small_constants():
    # ewens(2), n=2: cycle-weight products are 4 (identity) and 2, /2! -> 3.
    assert norm_constants(WeightSequence.ewens(2.0), 2).h(2) == pytest.approx(3.0, rel=1e-12)
    # theta_k = k at n=3: the six permutations weigh 1,2,2,2,3,3 -> 13/6.
    assert norm_constants(WeightSequence.polynomial(1.0, 1.0), 3).h(3) == pytest.approx(
        13.0 / 6.0, rel=1e-12
    )
    # fixed points forbidden, theta_2 = 1: only the transposition survives at n=2.
    assert norm_constants(WeightSequence.explicit((0.0, 1.0)), 2).h(2) == pytest.approx(
        0.5, rel=1e-12
    )


def test_h_matches_enumeration(weight_family):
    table = norm_constants(weight_family, 8)
    for n in range(9):
        exact = enumerate_h(weight_family, n)
        assert table.h(n) == pytest.approx(exact, rel=1e-10)


@given(
    st.sampled_from([ws for _, ws in FAMILIES]),
    st.integers(min_value=1, max_value=60),
)
def test_recurrence_residual(ws, n):
    # n h_n = sum_k theta_k h_{n-k} must hold to near machine precision.
    table = norm_constants(ws, n)
    total = math.fsum(ws.theta(k) * table.h(n - k) for k in range(1, n + 1))
    assert total == pytest.approx(n * table.h(n), rel=1e-12)


def _reference_log_h(ws, n_max):
    """The recurrence with one scipy logsumexp call per step."""
    log_theta = ws.log_theta_array(n_max)
    log_h = np.full(n_max + 1, -np.inf)
    log_h[0] = 0.0
    for n in range(1, n_max + 1):
        log_h[n] = logsumexp(log_theta[1:n + 1] + log_h[n - 1::-1]) - math.log(n)
    return log_h


@pytest.mark.parametrize(
    "ws",
    [ws for _, ws in FAMILIES]
    + [parse_weights("list:0,0,1.5;tail=zero"), parse_weights("list:0,1")],
    ids=[name for name, _ in FAMILIES] + ["only_3_cycles", "no_fixed_points"],
)
def test_norm_constants_matches_scipy_reference(ws):
    ref = _reference_log_h(ws, 1500)
    got = norm_constants(ws, 1500).log_h
    assert np.array_equal(np.isneginf(got), np.isneginf(ref))
    finite = np.isfinite(ref)
    assert np.all(np.isfinite(got[finite]))
    gap = np.abs(got[finite] - ref[finite])
    assert np.all(gap <= 1e-13 * np.maximum(1.0, np.abs(ref[finite])))


def _log_sum_exp_loop(ws, n_max):
    """The recurrence in log scale, one max-shifted log-sum-exp per step."""
    log_theta = ws.log_theta_array(n_max)
    log_h = np.full(n_max + 1, -np.inf)
    log_h[0] = 0.0
    buf = np.empty(n_max)
    for n in range(1, n_max + 1):
        terms = buf[:n]
        np.add(log_theta[1:n + 1], log_h[n - 1::-1], out=terms)
        top = terms.max()
        if top == -np.inf:
            continue
        terms -= top
        np.exp(terms, out=terms)
        log_h[n] = top + math.log(terms.sum()) - math.log(n)
    return log_h


def _only_3_cycles_log_h(n_max):
    # theta_3 = 1.5 and no other weight: h_{3j} = (1/2)^j / j!, and 0 off multiples of 3
    log_h = np.full(n_max + 1, -np.inf)
    for j in range(n_max // 3 + 1):
        log_h[3 * j] = -j * math.log(2.0) - math.lgamma(j + 1)
    return log_h


@pytest.mark.parametrize(
    "spec",
    ["uniform", "ewens:1.5", "ewens:1000", "poly:1,0.5", "list:0,1", "list:0,0,1.5;tail=zero"],
)
def test_norm_constants_matches_log_sum_exp_loop_at_20k(spec):
    ws = parse_weights(spec)
    ref = _log_sum_exp_loop(ws, 20000)
    got = norm_constants(ws, 20000).log_h
    assert np.array_equal(np.isneginf(got), np.isneginf(ref))
    if spec == "list:0,0,1.5;tail=zero":
        # the loop's own rounding drifts by 1.06e-13 of |log h| over 6667 steps
        # here, so the values are held to the closed form instead
        ref = _only_3_cycles_log_h(20000)
    finite = np.isfinite(ref)
    gap = np.abs(got[finite] - ref[finite])
    assert np.all(gap <= 1e-13 * np.maximum(1.0, np.abs(ref[finite])))


def test_norm_constants_keeps_far_apart_weights_and_constants():
    # theta spans 2**1330 and h_n grows past 1e300 within a few steps, so both
    # the weights and the constants take several scale blocks
    for spec in ("list:1e-200,1e200,1", "poly:1,60"):
        ws = parse_weights(spec)
        ref = _log_sum_exp_loop(ws, 600)
        got = norm_constants(ws, 600).log_h
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_norm_constants_do_not_depend_on_blas_threads():
    # one dot over more than 10 000 elements may be split across OpenBLAS threads
    code = (
        "import hashlib; from permcycles import norm_constants, parse_weights; "
        "t = norm_constants(parse_weights('poly:1,0.5'), 20000); "
        "print(hashlib.sha256(t.log_h.tobytes()).hexdigest())"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src] + sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]


@pytest.mark.parametrize("theta", [0.3, 1.5, 20.0])
def test_norm_constants_match_the_ewens_closed_form_at_200k(theta):
    # h_n = prod_{j <= n} (1 + (theta - 1) / j), summed in log scale exactly rounded
    n_max = 200000
    got = norm_constants(WeightSequence.ewens(theta), n_max).log_h
    terms = [math.log1p((theta - 1.0) / j) for j in range(1, n_max + 1)]
    checks = {1, 2, 1023, 1024, 1025, 1026, 2047, 2048, 2049, 30001, n_max - 1, n_max}
    checks |= {int(v) for v in np.geomspace(3, n_max, 30)}
    for n in sorted(checks):
        ref = math.fsum(terms[:n])
        assert abs(got[n] - ref) <= 1e-13 * max(1.0, abs(ref)), n


@pytest.mark.parametrize(
    "ws",
    [parse_weights("list:0,1;tail=zero"), WeightSequence.explicit([0, 1] * 1000, tail="zero")],
    ids=["two_cycles", "even_cycles_to_2000"],
)
def test_norm_constants_are_exactly_zero_where_no_permutation_has_weight(ws):
    # only even cycle lengths carry weight, so h_n = 0 exactly at every odd n;
    # the second's theta reaches k = 2000, past the steps run one at a time
    got = norm_constants(ws, 20000).log_h
    assert np.all(np.isneginf(got[1::2]))
    assert np.all(np.isfinite(got[0::2]))
    if ws.values == (0.0, 1.0):        # perfect matchings: h_2j = 2**-j / j!
        j = np.arange(10001)
        ref = -j * math.log(2.0) - np.array([math.lgamma(v + 1) for v in j])
        assert np.all(np.abs(got[0::2] - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
    else:
        ref = _log_sum_exp_loop(ws, 3000)
        small = norm_constants(ws, 3000).log_h
        assert np.array_equal(np.isneginf(small), np.isneginf(ref))
        finite = np.isfinite(ref)
        gap = np.abs(small[finite] - ref[finite])
        assert np.all(gap <= 1e-13 * np.maximum(1.0, np.abs(ref[finite])))


@pytest.mark.parametrize("spec", ["list:1e-200,1e200,1", "poly:1,60", "list:1e-100,1e100,1"])
def test_norm_constants_keep_far_apart_scales_past_3000_steps(spec):
    # the last keeps theta in one block while h spans hundreds of them, so the
    # FFT products take operands over many blocks
    ws = parse_weights(spec)
    ref = _log_sum_exp_loop(ws, 3000)
    got = norm_constants(ws, 3000).log_h
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_norm_constants_redo_the_steps_whose_products_are_not_certified(monkeypatch):
    # h_n ~ 1e-20 sits far below the products' largest terms (h_0 theta_1 = 1), so
    # their rounding swamps it; those steps are redone by dots over every m
    ws = parse_weights("list:1,1e-20")
    ref = _log_sum_exp_loop(ws, 3000)
    finite = np.isfinite(ref)

    def gap():
        got = norm_constants(ws, 3000).log_h
        return np.abs(got[finite] - ref[finite]) / np.maximum(1.0, np.abs(ref[finite]))

    assert np.all(gap() <= 1e-13)
    monkeypatch.setattr(weights, "_CERTIFIED", math.inf)
    with np.errstate(invalid="ignore"):
        assert not np.all(gap() <= 1e-13)


@pytest.mark.parametrize(
    "spec,digest",
    [
        ("uniform", "6ef7cad281b0f497955a2b3ee60c8285fcc186eec9b6aae6d0af7bbb115366de"),
        ("ewens:1.5", "2bc46fc3acbb76653c9d1f6f9d97d50c2642dbf2c899f4131b92ccc1dcd46f71"),
        ("poly:1,0.5", "c9c6e6c4bb755950c721fa4bb8c14fa5c0b6c7e8ff03cb3f3bb2a260d34eaccf"),
        ("list:0,0,1.5;tail=zero",
         "54b1f0040a12515963db582903a612780b73d76d226eb5b4311261e1ff183cec"),
    ],
)
def test_norm_constants_below_the_base_size_keep_the_one_step_tables_bits(spec, digest):
    # SHA-256 of the tables the one-step-at-a-time loop built (numpy 2.4, OpenBLAS, x86-64)
    got = norm_constants(parse_weights(spec), 1000).log_h
    assert hashlib.sha256(got.tobytes()).hexdigest() == digest


def test_norm_constants_rejects_negative_n():
    with pytest.raises(ValueError):
        norm_constants(WeightSequence.uniform(), -1)


def test_table_h_out_of_range():
    table = norm_constants(WeightSequence.uniform(), 5)
    with pytest.raises(ValueError):
        table.h(6)
    with pytest.raises(ValueError):
        table.h(-1)


# ---------------------------------------------------------------- degeneracy


def test_degenerate_model_signals():
    # theta_1 = theta_2 = 0 leaves nothing to build permutations of size 2 from.
    ws = WeightSequence.explicit((0.0, 0.0, 3.0))
    with pytest.raises(DegenerateModelError):
        cycle_length_distribution(ws, norm_constants(ws, 2), 2)
    # an all-zero weight sequence kills every h_n
    ws = WeightSequence.explicit((0.0,), tail="zero")
    with pytest.raises(DegenerateModelError):
        cycle_length_distribution(ws, norm_constants(ws, 4), 4)


# ------------------------------------------------------------- hurwitz zeta


@pytest.mark.parametrize("s", [1 + 1e-6, 1.01, 1.5, 2.0, 3.5, 8.0])
@pytest.mark.parametrize("q", [1.0, 2.0, 5.0, 7.0, 100.0, 1e4])
def test_hurwitz_zeta_matches_scipy(s, q):
    assert _hurwitz_zeta(s, q) == pytest.approx(float(zeta(s, q)), rel=1e-12)


def test_hurwitz_zeta_rejects_its_divergent_range():
    for s, q in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.0), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            _hurwitz_zeta(s, q)
