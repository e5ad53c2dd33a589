"""Weight sequences, the grammar, and normalization constants."""

import math

import numpy as np
import pytest
from hypothesis import given
from scipy.special import logsumexp
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


def test_spec_string_round_trip():
    for _, ws in FAMILIES:
        assert parse_weights(ws.spec_string()) == ws


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
