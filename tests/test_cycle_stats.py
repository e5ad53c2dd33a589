"""Integer cycle statistics and their conventions."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perms import from_cycles, from_image, identity
from permcycles import (
    CycleStatistics,
    ExactDistribution,
    FixedPointSummary,
    Permutation,
    PermutationSampler,
    RngStream,
    WeightSequence,
    cycle_ranges,
    fixed_point_summary,
    norm_constants,
    sum_of_k_cycles,
)
from permcycles import cycle_stats
from permcycles.cycle_stats import STATISTICS, parse_statistic
from permcycles.limit_laws import LAW_NAMES
from permcycles.oracle import exact_statistic_distribution

_WS = WeightSequence.ewens(1.0)
_TABLE = norm_constants(_WS, 64)
_SAMPLER = PermutationSampler(_WS, _TABLE)


def _draw(n, seed):
    return _SAMPLER.sample(n, RngStream(seed, 0))


def cycle_counts(perm: Permutation, k_max: int) -> dict[int, int]:
    """Number of k-cycles for each k = 1..k_max (zeros included).

    The reference that ``CycleStatistics.counts`` is checked against.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    counts = {k: 0 for k in range(1, k_max + 1)}
    for c in perm.cycles:
        if len(c) <= k_max:
            counts[len(c)] += 1
    return counts


def test_cycle_counts_examples():
    assert cycle_counts(identity(4), 2) == {1: 4, 2: 0}
    assert cycle_counts(from_image((2, 1, 4, 3)), 2) == {1: 0, 2: 2}
    assert cycle_counts(from_image((2, 3, 1)), 5) == {
        1: 0, 2: 0, 3: 1, 4: 0, 5: 0,
    }
    with pytest.raises(ValueError):
        cycle_counts(identity(3), 0)


def test_sum_of_k_cycles_examples():
    assert sum_of_k_cycles(identity(3), 1) == 6
    assert sum_of_k_cycles(from_image((2, 1, 3)), 2) == 3
    assert sum_of_k_cycles(from_image((2, 1, 3)), 3) == 0
    with pytest.raises(ValueError):
        sum_of_k_cycles(identity(3), 0)


def test_cycle_ranges_examples():
    assert cycle_ranges(from_image((2, 1, 4, 3)), 2) == (1, 1)
    # 2-cycles (1,4) and (2,3): spreads 3 and 1
    p = from_cycles(4, [(1, 4), (2, 3)])
    assert cycle_ranges(p, 2) == (1, 3)
    # no 3-cycle: the (n, 0) convention
    assert cycle_ranges(from_image((2, 1, 3)), 3) == (3, 0)
    with pytest.raises(ValueError):
        cycle_ranges(identity(3), 1)


def _image_fixed_point_summary(perm: Permutation) -> FixedPointSummary:
    """Fixed-point summary from a scan of the image.

    The reference that the cycle-based ``fixed_point_summary`` is checked
    against.
    """
    n = perm.n
    fps = [i for i in range(1, n + 1) if perm.image[i - 1] == i]
    if not fps:
        return FixedPointSummary(n + 1, 0, n + 1, n + 1)
    gaps = [fps[0]]
    gaps += [b - a for a, b in zip(fps, fps[1:])]
    gaps.append(n + 1 - fps[-1])
    return FixedPointSummary(fps[0], fps[-1], min(gaps), max(gaps))


def test_fixed_point_summary_matches_image_scan_on_all_of_s1_to_s6():
    for n in range(1, 7):
        for image in itertools.permutations(range(1, n + 1)):
            perm = from_image(image)
            assert fixed_point_summary(perm) == _image_fixed_point_summary(perm)


@pytest.mark.parametrize("ws", [WeightSequence.uniform(), WeightSequence.ewens(3.0)])
def test_fixed_point_summary_matches_image_scan_on_sampled_permutations(ws):
    n = 1000
    sampler = PermutationSampler(ws, norm_constants(ws, n))
    for rng in RngStream(23, (0, 0)).consecutive(100):
        perm = sampler.sample(n, rng)
        assert fixed_point_summary(perm) == _image_fixed_point_summary(perm)


def test_fixed_point_summary_examples():
    p = from_cycles(5, [(1, 3), (2,), (4,), (5,)])
    # fixed points {2, 4, 5}: gaps {2, 2, 1, 1}
    assert fixed_point_summary(p) == FixedPointSummary(2, 5, 1, 2)
    q = from_cycles(5, [(1, 3), (2, 4), (5,)])
    assert fixed_point_summary(q) == FixedPointSummary(5, 5, 1, 5)
    none = from_cycles(5, [(1, 2, 3, 4, 5)])
    assert fixed_point_summary(none) == FixedPointSummary(6, 0, 6, 6)
    ident = identity(3)
    assert fixed_point_summary(ident) == FixedPointSummary(1, 3, 1, 1)


def test_fixed_point_summary_mid_window():
    # fixed points {2, 4} in n=5: gaps {2, 2, 2}
    p = from_cycles(5, [(1, 3, 5), (2,), (4,)])
    assert fixed_point_summary(p) == FixedPointSummary(2, 4, 2, 2)


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**31))
def test_partition_identities(n, seed):
    perm = _draw(n, seed)
    stats = CycleStatistics.from_permutation(perm, n)
    assert sum(k * c for k, c in stats.counts.items()) == n
    assert sum(stats.sums.values()) == n * (n + 1) // 2
    assert stats.sums[1] == sum(i for i in range(1, n + 1) if perm.image[i - 1] == i)


@given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=2**31))
def test_spacing_invariants(n, seed):
    perm = _draw(n, seed)
    fs = fixed_point_summary(perm)
    fps = [i for i in range(1, n + 1) if perm.image[i - 1] == i]
    if not fps:
        assert fs == FixedPointSummary(n + 1, 0, n + 1, n + 1)
        return
    assert fs.min_point == min(fps)
    assert fs.max_point == max(fps)
    gaps = [fps[0]]
    gaps += [b - a for a, b in zip(fps, fps[1:])]
    gaps.append(n + 1 - fps[-1])
    assert sum(gaps) == n + 1  # both-ends gap multiset always covers the window
    assert fs.min_spacing == min(gaps)
    assert fs.max_spacing == max(gaps)
    assert 1 <= fs.min_spacing <= fs.max_spacing


@given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=2**31))
def test_range_invariants(n, seed):
    perm = _draw(n, seed)
    for k in (2, 3):
        lo, hi = cycle_ranges(perm, k)
        if any(len(c) == k for c in perm.cycles):
            assert k - 1 <= lo <= hi <= n - 1
        else:
            assert (lo, hi) == (n, 0)


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**31))
def test_bundle_matches_individual_functions(n, seed):
    perm = _draw(n, seed)
    k_max = min(n, 6)
    stats = CycleStatistics.from_permutation(perm, k_max)
    assert stats.counts == cycle_counts(perm, k_max)
    for k in range(1, k_max + 1):
        assert stats.sums[k] == sum_of_k_cycles(perm, k)
    for k in range(2, k_max + 1):
        assert (stats.min_range[k], stats.max_range[k]) == cycle_ranges(perm, k)
    assert stats.fixed == fixed_point_summary(perm)
    assert stats.n == n


_REDUCED = ("S1", "minrange:2", "minrange:3", "maxrange:2", "maxrange:3", "m", "M",
            "delta", "Delta")


@pytest.mark.parametrize("ws", [WeightSequence.ewens(0.5), WeightSequence.uniform()],
                         ids=["ewens:0.5", "uniform"])
@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_reducers_read_a_sampled_permutation_as_its_canonical_cycles(ws, n):
    # a sampled permutation answers from its arrangement and lengths; the
    # canonical form from its cycles, with the no-k-cycle conventions on both
    parsed = [parse_statistic(text) for text in _REDUCED]
    assert {e.name for e, _ in parsed} == {e.name for e in STATISTICS if e.reducer}

    def reduced(perm):
        return [getattr(cycle_stats, e.reducer)(perm, *(() if k is None else (k,)))
                for e, k in parsed] + [CycleStatistics.from_permutation(perm, 3)]

    sampler = PermutationSampler(ws, norm_constants(ws, n))
    for i in range(200):
        perm = sampler.sample(n, RngStream(31, i))
        got = reduced(perm)
        assert "cycles" not in perm.__dict__
        assert got == reduced(Permutation(n, perm.cycles))


# ------------------------------------------------------------------ registry


def test_every_limit_law_is_named_by_a_registry_entry():
    assert {s.law for s in STATISTICS if s.law} == set(LAW_NAMES)


@pytest.mark.parametrize("entry", STATISTICS, ids=[s.name for s in STATISTICS])
def test_every_oracle_selector_is_accepted_at_n3(entry):
    dist = exact_statistic_distribution(_WS, 3, entry.selector(entry.min_k))
    assert isinstance(dist, ExactDistribution)


@pytest.mark.parametrize("text, name, k", [
    ("S1", "sum", 1), ("sum:1", "sum", 1), ("count:3", "count", 3),
    ("minrange:2", "min_range", 2), ("max_range:4", "max_range", 4),
    ("m", "min_fixed", None), ("Delta", "max_spacing", None), ("cycle_type", "cycle_type", None),
])
def test_parse_statistic_resolves_names_and_aliases(text, name, k):
    entry, got_k = parse_statistic(text)
    assert (entry.name, got_k) == (name, k)


@pytest.mark.parametrize("text, message", [
    ("minrange:x", "needs an integer cycle length"),
    ("minrange", "needs an integer cycle length"),
    ("sum:0", "needs a cycle length k >= 1"),
    ("maxrange:0", "needs a cycle length k >= 2"),
    ("min_range:1", "needs a cycle length k >= 2"),
    ("m:1", "takes no cycle length"),
    ("S1:1", "takes no cycle length"),
    ("median", "unknown statistic"),
])
def test_parse_statistic_gives_one_error_per_malformed_selector(text, message):
    with pytest.raises(ValueError, match=message):
        parse_statistic(text)
