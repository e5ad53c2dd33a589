"""Brute-force enumeration oracle over small symmetric groups.

Everything here is exact arithmetic over at most 8! permutations, so the
expected values are frozen rationals computed by hand or by an independent
closed form.
"""

import math

import numpy as np
import pytest

from conftest import FAMILIES
from permcycles import (
    DegenerateModelError,
    EnumerationLimitError,
    ExactDistribution,
    InvalidCycleError,
    RngStream,
    WeightSequence,
    enumerate_h,
    exact_cycle_probability,
    exact_statistic_distribution,
)


def test_enumerate_h_frozen_values():
    assert enumerate_h(WeightSequence.uniform(), 0) == 1.0
    assert enumerate_h(WeightSequence.uniform(), 3) == pytest.approx(1.0, rel=1e-14)
    assert enumerate_h(WeightSequence.uniform(), 6) == pytest.approx(1.0, rel=1e-14)
    # ewens(2), n=2: weights 4 + 2 over 2! -> 3
    assert enumerate_h(WeightSequence.ewens(2.0), 2) == pytest.approx(3.0, rel=1e-14)
    # fixed points forbidden: only the transposition counts at n=2
    assert enumerate_h(WeightSequence.explicit((0.0, 1.0)), 2) == pytest.approx(0.5)
    # theta_k = k at n=3: 1 + 3*2 + 2*3 over 3! -> 13/6
    assert enumerate_h(WeightSequence.polynomial(1.0, 1.0), 3) == pytest.approx(13.0 / 6.0)


def test_enumeration_limit():
    with pytest.raises(EnumerationLimitError) as err:
        enumerate_h(WeightSequence.uniform(), 9)
    assert "8" in str(err.value)
    with pytest.raises(ValueError):
        enumerate_h(WeightSequence.uniform(), -1)
    with pytest.raises(EnumerationLimitError):
        exact_statistic_distribution(WeightSequence.uniform(), 9, "count:1")


def test_fixed_point_count_pmf_uniform_n3():
    dist = exact_statistic_distribution(WeightSequence.uniform(), 3, "count:1")
    assert dist.pmf() == pytest.approx({0: 2 / 6, 1: 3 / 6, 3: 1 / 6})


def test_fixed_point_count_pmf_ewens2_n2():
    dist = exact_statistic_distribution(WeightSequence.ewens(2.0), 2, "count:1")
    assert dist.pmf() == pytest.approx({0: 1 / 3, 2: 2 / 3})


def test_cycle_type_pmf_uniform_n4():
    dist = exact_statistic_distribution(WeightSequence.uniform(), 4, "cycle_type")
    expected = {
        (1, 1, 1, 1): 1 / 24,
        (1, 1, 2): 6 / 24,
        (1, 3): 8 / 24,
        (2, 2): 3 / 24,
        (4,): 6 / 24,
    }
    pmf = dist.pmf()
    assert set(pmf) == set(expected)
    for k, v in expected.items():
        assert pmf[k] == pytest.approx(v, rel=1e-12)


def test_sum_of_fixed_points_uniform_n3():
    dist = exact_statistic_distribution(WeightSequence.uniform(), 3, "sum:1")
    assert dist.pmf() == pytest.approx({0: 2 / 6, 1: 1 / 6, 2: 1 / 6, 3: 1 / 6, 6: 1 / 6})


def test_spacing_statistics_uniform_n2():
    ws = WeightSequence.uniform()
    assert exact_statistic_distribution(ws, 2, "min_fixed").pmf() == pytest.approx(
        {1: 0.5, 3: 0.5}
    )
    assert exact_statistic_distribution(ws, 2, "max_fixed").pmf() == pytest.approx(
        {0: 0.5, 2: 0.5}
    )
    # identity has fixed points {1, 2}: spacings (1, 1, 1); none otherwise
    assert exact_statistic_distribution(ws, 2, "min_spacing").pmf() == pytest.approx(
        {1: 0.5, 3: 0.5}
    )
    assert exact_statistic_distribution(ws, 2, "max_spacing").pmf() == pytest.approx(
        {1: 0.5, 3: 0.5}
    )


def test_range_statistics_uniform_n3():
    ws = WeightSequence.uniform()
    # 2-cycles in S_3: (1,2) and (2,3) have range 1, (1,3) has range 2,
    # and permutations without a 2-cycle report the convention (n, 0).
    assert exact_statistic_distribution(ws, 3, "min_range:2").pmf() == pytest.approx(
        {1: 2 / 6, 2: 1 / 6, 3: 3 / 6}
    )
    assert exact_statistic_distribution(ws, 3, "max_range:2").pmf() == pytest.approx(
        {0: 3 / 6, 1: 2 / 6, 2: 1 / 6}
    )


def test_singleton_group():
    dist = exact_statistic_distribution(WeightSequence.ewens(3.0), 1, "count:1")
    assert dist.pmf() == {1: 1.0}


def test_mean_fixed_point_count_closed_form():
    # E C_1 = theta h_{n-1} / h_n; for constant weights this is
    # theta n / (theta + n - 1).
    dist = exact_statistic_distribution(WeightSequence.ewens(2.0), 4, "count:1")
    assert dist.mean() == pytest.approx(8.0 / 5.0, rel=1e-12)
    uni = exact_statistic_distribution(WeightSequence.uniform(), 5, "count:1")
    assert uni.mean() == pytest.approx(1.0, rel=1e-12)


def test_pmf_sums_to_one(weight_family):
    dist = exact_statistic_distribution(weight_family, 5, "cycle_type")
    assert math.fsum(dist.pmf().values()) == pytest.approx(1.0, abs=1e-12)
    assert list(dist.support) == sorted(dist.support)


def test_bad_statistic_selectors():
    ws = WeightSequence.uniform()
    for bad in ("median", "count:x", "count:0", "min_range:1", "sum:", "max_range:-2"):
        with pytest.raises(ValueError):
            exact_statistic_distribution(ws, 3, bad)


def test_min_fixed_rejects_a_cycle_length():
    with pytest.raises(ValueError, match="takes no cycle length"):
        exact_statistic_distribution(WeightSequence.uniform(), 3, "min_fixed:3")


def test_cycle_type_rejects_a_suffix():
    with pytest.raises(ValueError, match="takes no cycle length"):
        exact_statistic_distribution(WeightSequence.uniform(), 3, "cycle_type:junk")


def test_degenerate_weights_raise():
    with pytest.raises(DegenerateModelError):
        exact_statistic_distribution(WeightSequence.explicit((0.0,), tail="zero"), 3, "count:1")
    with pytest.raises(DegenerateModelError):
        exact_cycle_probability(WeightSequence.explicit((0.0, 0.0, 1.0)), 2, [(1, 2)])


def test_exact_distribution_validation():
    with pytest.raises(ValueError):
        ExactDistribution((0, 1), np.array([1.0]))
    with pytest.raises(ValueError):
        ExactDistribution((0, 1), np.array([0.7, 0.2]))


# ------------------------------------------------------- cycle probabilities


def test_cycle_probability_frozen_cases():
    got = exact_cycle_probability(WeightSequence.uniform(), 3, [(1, 2)])
    assert got.enumeration == pytest.approx(1 / 6, rel=1e-14)
    assert got.closed_form == pytest.approx(1 / 6, rel=1e-14)

    got = exact_cycle_probability(WeightSequence.uniform(), 4, [(1, 2), (3, 4)])
    assert got.enumeration == pytest.approx(1 / 24, rel=1e-14)
    assert got.closed_form == pytest.approx(1 / 24, rel=1e-14)

    # single full cycle: p = theta_n / (h_n n!); ewens(2) at n=4 has h_4 = 5
    got = exact_cycle_probability(WeightSequence.ewens(2.0), 4, [(1, 2, 3, 4)])
    assert got.enumeration == pytest.approx(1 / 60, rel=1e-12)
    assert got.closed_form == pytest.approx(1 / 60, rel=1e-12)


def test_cycle_probability_empty_set_is_one():
    got = exact_cycle_probability(WeightSequence.ewens(0.5), 4, [])
    assert got.enumeration == pytest.approx(1.0, rel=1e-14)
    assert got.closed_form == pytest.approx(1.0, rel=1e-14)


def test_cycle_probability_channels_agree():
    # randomized fixtures; the acceptance gate runs a larger version of this
    gen = RngStream(421, 7).gen
    families = [ws for _, ws in FAMILIES if ws.theta(1) > 0]
    for trial in range(12):
        n = int(gen.integers(3, 8))
        ws = families[int(gen.integers(0, len(families)))]
        labels = list(gen.permutation(np.arange(1, n + 1)))
        cycles = []
        used = 0
        for _ in range(int(gen.integers(1, 4))):
            remaining = n - used
            if remaining == 0:
                break
            length = int(gen.integers(1, remaining + 1))
            chunk = sorted(int(v) for v in labels[used:used + length])
            rest = chunk[1:]
            gen.shuffle(rest)
            cycles.append(tuple(chunk[:1] + rest))
            used += length
        got = exact_cycle_probability(ws, n, cycles)
        assert got.closed_form == pytest.approx(got.enumeration, rel=1e-12, abs=1e-15)


def test_invalid_cycles_rejected():
    ws = WeightSequence.uniform()
    with pytest.raises(InvalidCycleError):
        exact_cycle_probability(ws, 4, [(2, 1)])  # not smallest-first
    with pytest.raises(InvalidCycleError):
        exact_cycle_probability(ws, 4, [(1, 2), (2, 3)])  # overlap
    with pytest.raises(InvalidCycleError):
        exact_cycle_probability(ws, 4, [(1, 5)])  # outside the ground set
    with pytest.raises(InvalidCycleError):
        exact_cycle_probability(ws, 4, [()])  # empty cycle
    with pytest.raises(InvalidCycleError):
        exact_cycle_probability(ws, 4, [(1, 1, 2)])  # repeated element
