"""The sequential cycle sampler and its exactness against the oracle."""

import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAMILIES
from perms import from_cycles, from_image, identity
from permcycles import sampler as sampler_module
from permcycles import (
    DegenerateModelError,
    Permutation,
    PermutationSampler,
    RngStream,
    WeightSequence,
    cycle_length_distribution,
    exact_statistic_distribution,
    norm_constants,
)


# ------------------------------------------------------------- permutations


def test_identity():
    p = identity(4)
    assert p.image == (1, 2, 3, 4)
    assert p.cycles == ((1,), (2,), (3,), (4,))


def test_cycle_decomposition_examples():
    assert from_image((2, 1, 3)).cycles == ((1, 2), (3,))
    assert from_image((3, 1, 2)).cycles == ((1, 3, 2),)
    assert from_image((2, 3, 1)).cycles == ((1, 2, 3),)
    assert from_image((1, 3, 2)).cycles == ((1,), (2, 3))


def test_from_cycles_round_trip():
    for image in itertools.permutations(range(1, 6)):
        p = from_image(image)
        q = from_cycles(p.n, p.cycles)
        assert q == p
        assert p.image == image


def test_from_image_and_from_cycles_compare_and_hash_equal():
    for n in range(1, 6):
        for image in itertools.permutations(range(1, n + 1)):
            p = from_image(image)
            # from_cycles gets the cycles rotated and reordered, not canonical
            q = from_cycles(n, [c[1:] + c[:1] for c in reversed(p.cycles)])
            assert p == q
            assert hash(p) == hash(q)
            assert len({p, q}) == 1
    assert from_image((2, 1, 3)) != from_image((1, 3, 2))


# --------------------------------------------- first-cycle length distribution


def test_cycle_length_distribution_uniform():
    table = norm_constants(WeightSequence.uniform(), 10)
    p = cycle_length_distribution(WeightSequence.uniform(), table, 5)
    assert np.allclose(p, 0.2, atol=1e-14)


def test_cycle_length_distribution_ewens2():
    ws = WeightSequence.ewens(2.0)
    table = norm_constants(ws, 4)
    p = cycle_length_distribution(ws, table, 2)
    assert p == pytest.approx([2 / 3, 1 / 3], rel=1e-12)


@given(
    st.sampled_from([ws for _, ws in FAMILIES]),
    st.integers(min_value=1, max_value=60),
)
def test_cycle_length_distribution_sums_to_one(ws, m):
    table = norm_constants(ws, m)
    p = cycle_length_distribution(ws, table, m)
    assert p.shape == (m,)
    assert (p >= 0).all()
    assert math.fsum(p) == pytest.approx(1.0, abs=1e-12)


def test_cycle_length_distribution_degenerate_and_range():
    ws = WeightSequence.explicit((0.0,), tail="zero")
    table = norm_constants(ws, 3)
    with pytest.raises(DegenerateModelError):
        cycle_length_distribution(ws, table, 1)
    good = norm_constants(WeightSequence.uniform(), 3)
    with pytest.raises(ValueError):
        cycle_length_distribution(WeightSequence.uniform(), good, 0)
    with pytest.raises(ValueError):
        cycle_length_distribution(WeightSequence.uniform(), good, 4)


def test_full_cycle_probability_matches_oracle():
    # The chance that the very first cycle swallows everything equals the
    # chance of a single n-cycle, and the sampler's first-length law gives it
    # in closed form: theta_n h_0 / (n h_n).
    n = 5
    for _, ws in FAMILIES:
        table = norm_constants(ws, n)
        p_len = cycle_length_distribution(ws, table, n)[n - 1]
        dist = exact_statistic_distribution(ws, n, f"count:{n}").pmf()
        assert p_len == pytest.approx(dist.get(1, 0.0), rel=1e-10, abs=1e-15)


def _length_chain_law(ws, n):
    """Law of the sorted cycle type that the sampler's length chain draws at size n.

    Walks every composition of n through ``cycle_length_distribution``, with
    no draws: the probability of a path is the product of its steps' laws.
    """
    table = norm_constants(ws, n)
    laws = {m: cycle_length_distribution(ws, table, m) for m in range(1, n + 1)
            if table.log_h[m] > -np.inf}
    mass = {}

    def walk(m, lengths, p):
        if m == 0:
            key = tuple(sorted(lengths))
            mass[key] = mass.get(key, 0.0) + p
            return
        for k in range(1, m + 1):
            q = p * laws[m][k - 1]
            if q > 0.0:
                walk(m - k, lengths + [k], q)

    walk(n, [], 1.0)
    return mass


@pytest.mark.parametrize("ws", [ws for _, ws in FAMILIES], ids=[name for name, _ in FAMILIES])
def test_length_chain_gives_the_exact_cycle_type_law(ws):
    for n in range(1, 8):
        chain = _length_chain_law(ws, n)
        exact = exact_statistic_distribution(ws, n, "cycle_type").pmf()
        assert set(chain) == set(exact)
        for ctype, p in exact.items():
            assert abs(chain[ctype] - p) <= 1e-12, (n, ctype)


def test_cut_reaches_each_permutation_of_the_cycle_type_equally_often():
    # every composition of n <= 6 (block lengths k_1, k_2, ... in draw order)
    # against all n! arrangements, 25 181 cases: each permutation of the
    # composition's cycle type is hit prod_j k_j * prod_l c_l! times, and no
    # other permutation at all.  The sampled form of each case (arrangement
    # and lengths, cycles built on first read) reads the same cycles.
    cases = 0
    for n in range(1, 7):
        for cuts in itertools.product((False, True), repeat=n - 1):
            starts = [0] + [i for i, cut in enumerate(cuts, start=1) if cut]
            lengths = [b - a for a, b in zip(starts, starts[1:] + [n])]
            hits = collections.Counter()
            for arrangement in itertools.permutations(range(1, n + 1)):
                cycles = sampler_module._cut(list(arrangement), starts)
                canonical = from_cycles(n, cycles)
                assert canonical.cycles == cycles  # canonical and a partition
                hits[cycles] += 1
                sampled = Permutation._sampled(np.array(arrangement) - 1, tuple(lengths))
                for k in range(1, n + 1):
                    assert sampled.cycles_of_length(k) == tuple(c for c in cycles if len(c) == k)
                assert "cycles" not in sampled.__dict__  # short cycles left them unbuilt
                assert sorted(sampled.lengths) == sorted(map(len, cycles))
                assert sampled.cycles == cycles
                assert sampled == canonical and hash(sampled) == hash(canonical)
            multiplicity = collections.Counter(lengths)
            ways = math.prod(lengths) * math.prod(math.factorial(c) for c in multiplicity.values())
            class_size = math.factorial(n) // math.prod(
                l ** c * math.factorial(c) for l, c in multiplicity.items())
            assert all(sorted(map(len, cycles)) == sorted(lengths) for cycles in hits)
            assert set(hits.values()) == {ways}
            assert len(hits) == class_size
            cases += math.factorial(n)
    assert cases == 25_181


# ------------------------------------------------------------------ sampler


def test_sample_n1_is_identity():
    ws = WeightSequence.ewens(3.0)
    sampler = PermutationSampler(ws, norm_constants(ws, 4))
    assert sampler.sample(1, RngStream(0, 0)) == identity(1)


def test_sample_is_deterministic_in_the_stream():
    ws = WeightSequence.ewens(0.5)
    sampler = PermutationSampler(ws, norm_constants(ws, 64))
    a = [sampler.sample(64, RngStream(9, 1)).image for _ in range(1)]
    b = [sampler.sample(64, RngStream(9, 1)).image for _ in range(1)]
    assert a == b
    c = sampler.sample(64, RngStream(9, 2)).image
    assert c != a[0]


# Cycles that sampler version v2 draws at fixed (weights, n, stream); a change
# to how a draw consumes randomness shows here and needs a new SAMPLER_VERSION.
_PINNED_DRAWS = (
    (WeightSequence.ewens(2.0), 5, (7, (0, 0)), ((1,), (2, 4, 5), (3,))),
    (WeightSequence.uniform(), 40, (11, (0, 0)), (
        (1, 21, 26, 32, 38, 27, 12, 23, 14, 35, 36, 28, 9, 2, 33, 19, 5, 13, 30, 11,
         7, 8, 22, 34, 37, 6, 29, 4, 24, 18),
        (3, 17), (10, 15, 25, 16, 39), (20, 40, 31),
    )),
    (WeightSequence.polynomial(1.0, 0.5), 40, (5, (0, 9)), (
        (1, 10, 30, 6, 8, 40, 32, 19, 13, 29, 7, 34, 14),
        (2, 21, 22, 26, 24, 11, 25),
        (3, 23, 20, 31, 27, 17, 33, 16, 15, 38, 9, 5),
        (4, 39, 12, 37, 35, 36, 28),
        (18,),
    )),
)


@pytest.mark.parametrize("ws, n, key, cycles", _PINNED_DRAWS)
def test_sample_draws_are_pinned(ws, n, key, cycles):
    perm = PermutationSampler(ws, norm_constants(ws, n)).sample(n, RngStream(*key))
    assert perm.cycles == cycles
    assert perm == from_cycles(n, cycles)


@pytest.mark.parametrize("ws, n, key, cycles", _PINNED_DRAWS)
def test_sample_leaves_the_image_to_first_use(ws, n, key, cycles):
    perm = PermutationSampler(ws, norm_constants(ws, n)).sample(n, RngStream(*key))
    assert "image" not in perm.__dict__
    assert perm.image == from_cycles(n, perm.cycles).image
    assert "image" in perm.__dict__


def test_sample_rejects_bad_n():
    ws = WeightSequence.uniform()
    sampler = PermutationSampler(ws, norm_constants(ws, 8))
    with pytest.raises(ValueError):
        sampler.sample(0, RngStream(0, 0))
    with pytest.raises(ValueError):
        sampler.sample(9, RngStream(0, 0))


def test_sample_degenerate_model():
    ws = WeightSequence.explicit((0.0,), tail="zero")
    sampler = PermutationSampler(ws, norm_constants(ws, 4))
    with pytest.raises(DegenerateModelError):
        sampler.sample(2, RngStream(0, 0))


@settings(max_examples=40)
@given(
    st.sampled_from([ws for _, ws in FAMILIES]),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sampled_permutations_are_valid(ws, n, seed):
    table = norm_constants(ws, 40)
    perm = PermutationSampler(ws, table).sample(n, RngStream(seed, 0))
    assert sorted(perm.image) == list(range(1, n + 1))
    # cycles attached during sampling match a fresh trace of the image
    assert perm.cycles == from_image(perm.image).cycles
    covered = [v for c in perm.cycles for v in c]
    assert sorted(covered) == list(range(1, n + 1))
    mins = [c[0] for c in perm.cycles]
    assert all(c[0] == min(c) for c in perm.cycles)
    assert mins == sorted(mins)


def test_length_cache_stays_bounded():
    # Uniform weights make the first cycle length uniform on 1..m, so the
    # remaining sizes wander over most of 1..n; the cache must evict.
    ws = WeightSequence.uniform()
    n = 400
    sampler = PermutationSampler(ws, norm_constants(ws, n))
    for i in range(500):
        sampler.sample(n, RngStream(13, i))
        assert sampler._cumulative.cache_info().currsize <= sampler_module._CUM_CACHE_SIZE
    assert sampler._cumulative.cache_info().misses > 4 * sampler_module._CUM_CACHE_SIZE


def test_length_cache_is_bounded_by_bytes(monkeypatch):
    # with room for 10 laws of 401 floats, the cache keeps 10 of them, not 64
    monkeypatch.setattr(sampler_module, "_CUM_CACHE_BYTES", 10 * 8 * 401 + 7)
    ws = WeightSequence.uniform()
    n = 400
    sampler = PermutationSampler(ws, norm_constants(ws, n))
    assert sampler._cumulative.cache_info().maxsize == 10
    for i in range(50):
        sampler.sample(n, RngStream(13, i))
    assert sampler._cumulative.cache_info().currsize == 10
    # a table too long for even one law still caches the last one
    monkeypatch.setattr(sampler_module, "_CUM_CACHE_BYTES", 8)
    assert PermutationSampler(ws, norm_constants(ws, n))._cumulative.cache_info().maxsize == 1


def _empirical_vs_exact(ws, n, draws, seed):
    """Max |empirical - exact| over all of S_n, in binomial SE units."""
    table = norm_constants(ws, n)
    sampler = PermutationSampler(ws, table)
    rng = RngStream(seed, 0)
    counts: dict = {}
    for _ in range(draws):
        img = sampler.sample(n, rng).image
        counts[img] = counts.get(img, 0) + 1

    weights = {}
    for image in itertools.permutations(range(1, n + 1)):
        cycles = from_image(image).cycles
        weights[image] = math.prod(ws.theta(len(c)) for c in cycles)
    total = math.fsum(weights.values())

    worst = 0.0
    for image, w in weights.items():
        p = w / total
        se = math.sqrt(p * (1 - p) / draws) if 0 < p < 1 else 1.0 / draws
        dev = abs(counts.get(image, 0) / draws - p) / se
        worst = max(worst, dev)
    return worst


def test_sampler_is_exact_on_s4():
    # Full-distribution check over all 24 permutations: every cell within
    # 5 binomial standard errors of its exact probability.
    assert _empirical_vs_exact(WeightSequence.uniform(), 4, 1_000_000, 101) < 5.0
    assert _empirical_vs_exact(WeightSequence.polynomial(1.0, 1.0), 4, 1_000_000, 102) < 5.0


def test_relabeling_symmetry():
    # Constant weights are exchangeable, so each element is a fixed point
    # equally often: theta / (theta + n - 1) per element.
    ws = WeightSequence.ewens(2.0)
    n, draws = 6, 200_000
    table = norm_constants(ws, n)
    sampler = PermutationSampler(ws, table)
    rng = RngStream(77, 0)
    hits = np.zeros(n)
    for _ in range(draws):
        img = sampler.sample(n, rng).image
        for i in range(n):
            if img[i] == i + 1:
                hits[i] += 1
    freq = hits / draws
    p = 2.0 / (2.0 + n - 1)
    se = math.sqrt(p * (1 - p) / draws)
    assert np.abs(freq - p).max() < 5 * se
