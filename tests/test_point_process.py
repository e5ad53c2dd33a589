"""Scaled cycle point measures, wedge boxes, intensities, the limit process."""

import itertools
import math
import random
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from conftest import FAMILIES
from permcycles import (
    BoxSpec,
    BoxSpecError,
    BoxUnion,
    Interval,
    PermutationSampler,
    Permutation,
    PointMeasure,
    RngStream,
    WeightSequence,
    avoidance_limit,
    count_in,
    intensity,
    norm_constants,
    parse_boxes,
    point_measure,
    simulate_limit_process,
    tail_intensity_mass,
)
from permcycles import point_process
from permcycles.point_process import intersect_boxes, limit_block_counts


def _box(level, *bounds, open_upper=()):
    ivs = tuple(
        Interval(lo, hi, hi_closed=(i + 1 not in open_upper))
        for i, (lo, hi) in enumerate(bounds)
    )
    return BoxSpec(level, ivs)


def _reference_contains(box, point):
    """Per-point membership in the box intersected with the wedge W_k, kept as a reference."""
    if len(point) != box.level or point[0] != min(point):
        return False
    return all(
        (x >= iv.lo if iv.lo_closed else x > iv.lo) and (x <= iv.hi if iv.hi_closed else x < iv.hi)
        for iv, x in zip(box.intervals, point)
    )


def _union_contains(union, level, point):
    """Membership of one point in the union and the wedge W_level, through ``BoxUnion.inside``."""
    return len(point) == level and bool(union.inside(level, np.array([point], dtype=float))[0])


def _min_first(point):
    """Rotate a tuple so its smallest entry comes first (cyclic order kept)."""
    if not point:
        raise ValueError("cannot rotate an empty point")
    i = point.index(min(point))
    return point[i:] + point[:i]


def _box_volume(box):
    """Wedge volume of one box: a one-row call of the kernel ``intensity`` uses."""
    lo, hi = np.array([[(iv.lo, iv.hi) for iv in box.intervals]]).transpose(2, 0, 1)
    return float(point_process._wedge_volumes(lo, hi)[0])


def _reference_box_volume(box):
    """The earlier polynomial-by-piece wedge volume, kept as a reference."""
    iv = box.intervals
    a1, b1 = iv[0].lo, iv[0].hi
    if box.level == 1:
        return b1 - a1
    cuts = {a1, b1}
    for itv in iv[1:]:
        for p in (itv.lo, itv.hi):
            if a1 < p < b1:
                cuts.add(p)
    pts = sorted(cuts)
    total = 0.0
    for lo, hi in zip(pts, pts[1:]):
        if hi <= lo:
            continue
        poly = np.polynomial.Polynomial([1.0])
        dead = False
        for itv in iv[1:]:
            if lo >= itv.hi:
                dead = True
                break
            if hi <= itv.lo:
                poly = poly * (itv.hi - itv.lo)
            else:
                poly = poly * np.polynomial.Polynomial([itv.hi, -1.0])
        if dead:
            continue
        anti = poly.integ()
        total += anti(hi) - anti(lo)
    return float(total)


def _reference_intensity(ws, union):
    """The earlier subset-by-subset inclusion-exclusion, kept as a reference."""
    total = 0.0
    for k in union.levels():
        boxes = union.boxes_at(k)
        vol = 0.0
        for r in range(1, len(boxes) + 1):
            sign = 1.0 if r % 2 else -1.0
            for combo in itertools.combinations(boxes, r):
                inter = reduce(
                    lambda x, y: None if x is None else intersect_boxes(x, y),
                    combo[1:],
                    combo[0],
                )
                if inter is not None:
                    vol += sign * _reference_box_volume(inter)
        total += ws.theta(k) * vol
    return total


def _random_box(rnd, k):
    # endpoints on coarse and fine grids, so boxes share and touch bounds
    bounds = [sorted(round(rnd.random(), rnd.choice((1, 2, 6))) for _ in range(2))
              for _ in range(k)]
    return _box(k, *bounds)


# ------------------------------------------------------------ point measures


def test_point_measure_identity_n2():
    pm = point_measure(Permutation.from_image((1, 2)))
    assert pm.n == 2
    assert pm.levels == {1: ((0.5,), (1.0,))}


def test_point_measure_transposition():
    pm = point_measure(Permutation.from_image((2, 1)))
    assert pm.levels == {2: ((0.5, 1.0),)}


def test_point_measure_mixed():
    pm = point_measure(Permutation.from_image((1, 3, 2)))
    assert pm.restrict(1) == ((1 / 3,),)
    assert pm.restrict(2) == ((2 / 3, 1.0),)
    assert pm.restrict(5) == ()
    assert sum(len(pts) for pts in pm.levels.values()) == 2


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**31))
def test_point_measure_mass_identity(n, seed):
    ws = WeightSequence.ewens(1.5)
    perm = PermutationSampler(ws, norm_constants(ws, 30)).sample(n, RngStream(seed, 0))
    pm = point_measure(perm)
    # sum over levels of k * (number of level-k points) recovers n
    assert sum(k * len(pts) for k, pts in pm.levels.items()) == n
    for k, pts in pm.levels.items():
        for p in pts:
            assert len(p) == k
            assert p[0] == min(p)
            # every coordinate sits on the 1/n lattice
            for x in p:
                assert (x * n) == pytest.approx(round(x * n), abs=1e-9)
                assert 0 < x <= 1


# -------------------------------------------------------------- rotation


def test_min_first_examples():
    assert _min_first((0.7, 0.2, 0.9)) == (0.2, 0.9, 0.7)
    assert _min_first((0.5,)) == (0.5,)
    assert _min_first((0.1, 0.4)) == (0.1, 0.4)
    with pytest.raises(ValueError):
        _min_first(())


@given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1, max_size=6, unique=True))
def test_min_first_is_a_cyclic_rotation(values):
    point = tuple(values)
    rotated = _min_first(point)
    assert rotated[0] == min(point)
    assert sorted(rotated) == sorted(point)
    doubled = point + point
    assert any(doubled[i:i + len(point)] == rotated for i in range(len(point)))
    assert _min_first(rotated) == rotated


# ------------------------------------------------------------- box algebra


def test_interval_validation_and_flags():
    with pytest.raises(BoxSpecError):
        Interval(0.5, 0.2)
    with pytest.raises(BoxSpecError):
        Interval(-0.1, 0.5)
    with pytest.raises(BoxSpecError):
        Interval(0.5, 1.2)
    box = BoxSpec(1, (Interval(0.0, 0.5, hi_closed=False),))
    assert _reference_contains(box, (0.0,))
    assert _reference_contains(box, (0.25,))
    assert not _reference_contains(box, (0.5,))
    assert _reference_contains(BoxSpec(1, (Interval(0.0, 0.5),)), (0.5,))


def test_box_spec_validation_and_membership():
    with pytest.raises(BoxSpecError):
        BoxSpec(0, ())
    with pytest.raises(BoxSpecError):
        BoxSpec(2, (Interval(0, 1),))
    box = _box(2, (0.0, 1.0), (0.5, 1.0))
    assert _reference_contains(box, (0.25, 0.75))
    assert not _reference_contains(box, (0.75, 0.25))  # not smallest-first
    assert not _reference_contains(box, (0.25, 0.25, 0.9))  # wrong level
    assert not _reference_contains(box, (0.25, 0.4))  # second coordinate below the box


def test_intersect_boxes():
    a = _box(1, (0.0, 0.5))
    b = _box(1, (0.6, 1.0))
    assert intersect_boxes(a, b) is None
    c = intersect_boxes(_box(1, (0.0, 0.7)), _box(1, (0.4, 1.0)))
    assert (c.intervals[0].lo, c.intervals[0].hi) == (0.4, 0.7)
    with pytest.raises(ValueError):
        intersect_boxes(a, _box(2, (0.0, 1.0), (0.0, 1.0)))
    # touching boxes intersect in a degenerate slab of volume zero
    d = intersect_boxes(_box(1, (0.0, 0.5)), _box(1, (0.5, 1.0)))
    assert d is not None
    assert _box_volume(d) == 0.0


# ---------------------------------------------------------------- volumes


def test_box_volume_full_cube_is_one_over_k():
    for k in range(1, 6):
        box = _box(k, *[(0.0, 1.0)] * k)
        assert _box_volume(box) == pytest.approx(1.0 / k, rel=1e-12)


def test_box_volume_frozen_cases():
    assert _box_volume(_box(1, (0.2, 0.7))) == pytest.approx(0.5, rel=1e-12)
    # level 2, [0,1] x [0.5,1]: integral of (1 - max(0.5, x)) over [0,1]
    # splits into 0.5*0.5 + 0.125 = 0.375
    assert _box_volume(_box(2, (0.0, 1.0), (0.5, 1.0))) == pytest.approx(0.375, rel=1e-12)
    # first coordinate above the second box kills the wedge entirely
    assert _box_volume(_box(2, (0.8, 1.0), (0.0, 0.5))) == 0.0


def test_box_volume_against_monte_carlo():
    # membership frequency of raw cube samples estimates vol(box ∩ wedge)
    gen = RngStream(2025, 4).gen
    fixtures = [
        _box(2, (0.1, 0.9), (0.3, 0.8)),
        _box(3, (0.0, 0.6), (0.2, 1.0), (0.5, 0.9)),
        _box(3, (0.3, 0.7), (0.0, 1.0), (0.0, 1.0)),
        _box(4, (0.0, 0.4), (0.1, 0.9), (0.3, 1.0), (0.0, 0.7)),
    ]
    n_mc = 400_000
    for box in fixtures:
        vol = _box_volume(box)
        pts = gen.random((n_mc, box.level))
        inside = np.ones(n_mc, dtype=bool)
        inside &= pts[:, 0] == pts.min(axis=1)
        for i, iv in enumerate(box.intervals):
            inside &= (pts[:, i] >= iv.lo) & (pts[:, i] <= iv.hi)
        est = inside.mean()
        se = math.sqrt(max(vol * (1 - vol), 1e-12) / n_mc)
        assert abs(est - vol) < 4 * se


# -------------------------------------------------------------- intensities


def test_intensity_full_cube_levels():
    for _, ws in FAMILIES:
        for k in (1, 2, 3):
            union = BoxUnion((_box(k, *[(0.0, 1.0)] * k),))
            assert intensity(ws, union) == pytest.approx(ws.theta(k) / k, rel=1e-12)


def test_intensity_frozen_cases():
    assert intensity(
        WeightSequence.ewens(2.0), BoxUnion((_box(1, (0.2, 0.7)),))
    ) == pytest.approx(1.0, rel=1e-12)
    # the two-level union used by the avoidance acceptance run
    union = BoxUnion((_box(1, (0.0, 0.5)), _box(2, (0.0, 1.0), (0.5, 1.0))))
    assert intensity(WeightSequence.uniform(), union) == pytest.approx(0.875, rel=1e-12)


def test_intensity_inclusion_exclusion():
    ws = WeightSequence.uniform()
    union = BoxUnion((_box(1, (0.0, 0.5)), _box(1, (0.3, 0.8))))
    assert intensity(ws, union) == pytest.approx(0.8, rel=1e-12)
    # listing the same box twice must not double-count
    twice = BoxUnion((_box(1, (0.0, 0.5)), _box(1, (0.0, 0.5))))
    assert intensity(ws, twice) == pytest.approx(0.5, rel=1e-12)


def test_intensity_matches_reference_on_random_unions():
    rnd = random.Random(20261018)
    ws = WeightSequence.polynomial(1.3, 0.4)
    for _ in range(150):
        k = rnd.randint(1, 4)
        boxes = tuple(_random_box(rnd, k) for _ in range(rnd.randint(1, 6)))
        if rnd.random() < 0.3:  # a second level in the same union
            boxes += (_random_box(rnd, 5 - k),)
        union = BoxUnion(boxes)
        assert abs(intensity(ws, union) - _reference_intensity(ws, union)) <= 1e-12
        for box in boxes:
            assert abs(_box_volume(box) - _reference_box_volume(box)) <= 1e-12


def test_intensity_matches_reference_on_twelve_level3_boxes():
    boxes = tuple(
        _box(3, (0.02 * a, 0.5 + 0.02 * a), (0.03 * a, 0.6 + 0.02 * a), (0.01 * a, 0.7 + 0.01 * a))
        for a in range(12)
    )
    union = BoxUnion(boxes)
    ws = WeightSequence.ewens(1.5)
    assert abs(intensity(ws, union) - _reference_intensity(ws, union)) <= 1e-12


def test_intensity_matches_reference_on_sixteen_level12_boxes():
    # boxes i and j meet when |i - j| <= 7: 1279 nonempty subsets, more than
    # one kernel block of rows at level 12
    rnd = random.Random(12)
    boxes = tuple(
        _box(12, (0.04 * i, 0.04 * i + 0.3),
             *(sorted((round(rnd.uniform(0, 0.4), 2), round(rnd.uniform(0.5, 1), 2)))
               for _ in range(11)),
             open_upper=(2,))
        for i in range(16)
    )
    assert len(boxes) == point_process._MAX_BOXES_PER_LEVEL
    assert 1279 > point_process._KERNEL_BLOCK // (2 * 12 * 12)
    union = BoxUnion(boxes)
    ws = WeightSequence.ewens(1.5)
    assert abs(intensity(ws, union) - _reference_intensity(ws, union)) <= 1e-12


def test_intensity_memory_stays_bounded_at_sixteen_boxes():
    # all 2^16 - 1 subsets meet; one kernel pass over every row at level 6
    # would hold arrays of 65535 * 12 * 6 doubles (38 MB each)
    boxes = tuple(_box(6, *[(0.01 * i, 0.9 + 0.005 * i)] * 6) for i in range(16))
    tracemalloc.start()
    try:
        value = intensity(WeightSequence.ewens(1.5), BoxUnion(boxes))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6
    # the union holds its first box and sits inside [0, 0.975]^6
    assert 1.5 * _box_volume(boxes[0]) < value < 1.5 * _box_volume(_box(6, *[(0.0, 0.975)] * 6))


def test_intensity_box_count_limit():
    boxes = tuple(_box(1, (i / 40, (i + 1) / 40)) for i in range(17))
    with pytest.raises(ValueError):
        intensity(WeightSequence.uniform(), BoxUnion(boxes))


def test_avoidance_limit_values():
    assert avoidance_limit(WeightSequence.uniform(), BoxUnion(())) == 1.0
    # all of levels 1 and 2: intensity 1 + 1/2
    union = BoxUnion((_box(1, (0.0, 1.0)), _box(2, (0.0, 1.0), (0.0, 1.0))))
    assert avoidance_limit(WeightSequence.uniform(), union) == pytest.approx(
        math.exp(-1.5), rel=1e-12
    )


# ------------------------------------------------------------ limit process


def test_simulate_limit_process_deterministic():
    ws = WeightSequence.ewens(2.0)
    a = simulate_limit_process(ws, 3, RngStream(11, 0))
    b = simulate_limit_process(ws, 3, RngStream(11, 0))
    assert a.n == 0
    assert a.levels == b.levels
    with pytest.raises(ValueError):
        simulate_limit_process(ws, 0, RngStream(0, 0))


def test_simulate_limit_process_empty_for_zero_weights():
    ws = WeightSequence.explicit((0.0,), tail="zero")
    pm = simulate_limit_process(ws, 4, RngStream(0, 0))
    assert pm.levels == {}


def test_simulate_limit_process_level_means():
    ws = WeightSequence.ewens(2.0)
    draws = 60_000
    rng = RngStream(404, 0)
    counts = np.zeros((draws, 3))
    for i in range(draws):
        pm = simulate_limit_process(ws, 3, rng)
        for k in (1, 2, 3):
            counts[i, k - 1] = len(pm.restrict(k))
    for k in (1, 2, 3):
        mean = ws.theta(k) / k
        se = math.sqrt(mean / draws)  # Poisson variance equals the mean
        assert abs(counts[:, k - 1].mean() - mean) < 4 * se
        assert abs(counts[:, k - 1].var() - mean) < 6 * se


def test_simulate_limit_process_points_are_uniform_on_the_wedge():
    # bin level-2 points into a 3x3 grid of boxes; cell probabilities are
    # proportional to wedge volumes
    ws = WeightSequence.uniform()
    rng = RngStream(512, 0)
    pts = []
    for _ in range(4000):
        pm = simulate_limit_process(ws, 2, rng)
        pts.extend(pm.restrict(2))
    for p in pts:
        assert p[0] == min(p)
    edges = np.linspace(0.0, 1.0, 4)
    observed, vols = [], []
    for i in range(3):
        for j in range(3):
            cell = _box(2, (edges[i], edges[i + 1]), (edges[j], edges[j + 1]))
            vol = _box_volume(cell)
            if vol < 1e-9:
                continue
            ob = sum(
                1
                for p in pts
                if edges[i] <= p[0] < edges[i + 1] and edges[j] <= p[1] < edges[j + 1]
            )
            observed.append(ob)
            vols.append(vol)
    expected = np.array(vols) / sum(vols) * sum(observed)
    res = chisquare(observed, expected)
    assert res.pvalue > 1e-3


def test_simulate_limit_process_matches_per_point_draws():
    ws = WeightSequence.polynomial(2.5, 0.3)
    for i in range(300):
        got = simulate_limit_process(ws, 4, RngStream(77, (1, i)))
        gen = RngStream(77, (1, i)).gen
        want = {}
        for k in range(1, 5):
            cnt = int(gen.poisson(ws.theta(k) / k))
            if cnt:
                want[k] = tuple(_min_first(tuple(gen.random(k))) for _ in range(cnt))
        assert got.levels == want


def test_limit_block_counts_equal_count_in_on_the_blocks_own_points():
    ws = WeightSequence.polynomial(2.5, 0.3)
    union = parse_boxes("box:k=1;0,0.4;box:k=2;0.1,0.9;0.3,1;open=2;"
                        "box:k=3;0,0.5;0.2,1;0,0.8;box:k=3;0.1,0.3;0,1;0.5,1")
    draws = 500
    got = limit_block_counts(ws, 3, union, draws, RngStream(9, (1, 0)))
    # the block's points: per level, every draw's Poisson count, then the uniforms in draw order
    gen = RngStream(9, (1, 0)).gen
    levels = [{} for _ in range(draws)]
    for k in range(1, 4):
        cnt = gen.poisson(ws.theta(k) / k, size=draws)
        rows = iter(gen.random((int(cnt.sum()), k)).tolist())
        for d, c in enumerate(cnt.tolist()):
            if c:
                levels[d][k] = tuple(_min_first(tuple(next(rows))) for _ in range(c))
    want = [count_in(PointMeasure(0, lv), union) for lv in levels]
    assert got.tolist() == want
    assert min(want) == 0 and max(want) >= 2


def test_limit_block_counts_do_not_depend_on_the_slice_size(monkeypatch):
    ws = WeightSequence.ewens(40.0)
    union = parse_boxes("box:k=1;0.2,0.5;box:k=1;0.4,0.9;box:k=2;0,0.5;0.25,1;open=1")
    want = limit_block_counts(ws, 2, union, 300, RngStream(3, (1, 2)))
    monkeypatch.setattr(point_process, "_KERNEL_BLOCK", 64)
    got = limit_block_counts(ws, 2, union, 300, RngStream(3, (1, 2)))
    assert got.tolist() == want.tolist()


def test_limit_block_memory_stays_bounded_at_large_theta():
    # ewens:1000 puts ~4.1 million level-1 points into one 4096-draw block;
    # held and compared against 16 boxes at once they would take ~100 MB
    ws = WeightSequence.ewens(1000.0)
    union = parse_boxes(";".join(f"box:k=1;{i / 20:.2f},{i / 20 + 0.03:.2f}" for i in range(16)))
    tracemalloc.start()
    try:
        counts = limit_block_counts(ws, 1, union, 4096, RngStream(4, (1, 0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20
    # 16 disjoint boxes of length 0.03 hold 1000 * 0.48 points per draw on average
    assert abs(counts.mean() - 480.0) < 3.0


# ------------------------------------------------------------------ counting


def test_count_in_examples():
    pm = point_measure(Permutation.from_image((2, 1, 4, 3)))
    # level-2 points: (0.25, 0.5) and (0.75, 1.0)
    union = parse_boxes("box:k=2;0,0.5;0,0.5")
    assert count_in(pm, union) == 1
    # opening the second upper endpoint expels (0.25, 0.5)
    assert count_in(pm, parse_boxes("box:k=2;0,0.5;0,0.5;open=2")) == 0
    # level-1 boxes see nothing here
    assert count_in(pm, parse_boxes("box:k=1;0,1")) == 0


def test_count_in_multi_level():
    pm = point_measure(Permutation.from_image((1, 3, 2)))
    union = parse_boxes("box:k=1;0,0.4 ; box:k=2;0.5,1;0.5,1")
    assert count_in(pm, union) == 2


def test_count_in_matches_box_contains_with_open_endpoints():
    rnd = random.Random(5)
    grid = [i / 10 for i in range(11)]
    for _ in range(200):
        boxes = []
        for _ in range(rnd.randint(1, 4)):
            k = rnd.randint(1, 3)
            ivs = []
            for _ in range(k):
                lo, hi = sorted(rnd.sample(grid, 2))
                ivs.append(Interval(lo, hi, rnd.random() < 0.7, rnd.random() < 0.5))
            boxes.append(BoxSpec(k, tuple(ivs)))
        union = BoxUnion(tuple(boxes))
        # lattice points land on the endpoints; some are not smallest-first
        levels = {k: tuple(tuple(rnd.choice(grid) for _ in range(k)) for _ in range(8))
                  for k in (1, 2, 3)}
        pm = PointMeasure(0, levels)
        want = sum(
            1 for k in union.levels() for p in pm.restrict(k)
            if any(_reference_contains(b, p) for b in union.boxes_at(k))
        )
        assert count_in(pm, union) == want


# ---------------------------------------------------------------- grammar


def test_parse_boxes_round_trip_semantics():
    union = parse_boxes("box:k=1;0,0.5;box:k=2;0,1;0.5,1")
    assert union.levels() == (1, 2)
    assert _union_contains(union, 1, (0.25,))
    assert not _union_contains(union, 1, (0.75,))
    assert _union_contains(union, 2, (0.2, 0.8))
    assert parse_boxes("").boxes == ()
    # case/whitespace tolerance
    spaced = parse_boxes("BOX : K = 1 ; 0 , 1")
    assert spaced.boxes[0].level == 1


def test_parse_boxes_open_directive():
    union = parse_boxes("box:k=2;0,0.5;0,0.5;open=1,2")
    box = union.boxes[0]
    assert not box.intervals[0].hi_closed
    assert not box.intervals[1].hi_closed
    assert box.intervals[0].lo_closed


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("box:k=2;0,1", "needs 2"),
        ("0,1", "before any box"),
        ("box:k=1;0,1;open=3", "outside"),
        ("box:k=1;0,x", "not numeric"),
        ("box:k=1;0.2,1.4", "not inside"),
        ("box:k=0;", ">= 1"),
        ("box:k=1;0,0.5,1", "not '<lo>,<hi>'"),
        ("box:k=1;0,1;open=a", "not integers"),
    ],
)
def test_parse_boxes_errors(text, fragment):
    with pytest.raises(BoxSpecError) as err:
        parse_boxes(text)
    assert fragment in str(err.value)


# ---------------------------------------------------------------- tail mass


def test_tail_intensity_mass():
    assert tail_intensity_mass(WeightSequence.uniform(), 6) == math.inf
    assert tail_intensity_mass(WeightSequence.ewens(0.3), 6) == math.inf
    assert tail_intensity_mass(WeightSequence.polynomial(1.0, 0.5), 6) == math.inf
    # decaying polynomial: compare the Hurwitz zeta form to a brute sum
    got = tail_intensity_mass(WeightSequence.polynomial(2.0, -0.5), 4)
    ks = np.arange(5, 4_000_000)
    brute = 2.0 * float(np.sum(ks**-1.5))
    tail_bound = 2.0 * 2.0 / math.sqrt(4_000_000)  # integral bound on the rest
    assert got == pytest.approx(brute + tail_bound / 2, abs=tail_bound)
    # explicit zero tail: only listed weights past k_max contribute
    ws = WeightSequence.explicit((1.0, 0.5, 0.25), tail="zero")
    assert tail_intensity_mass(ws, 1) == pytest.approx(0.5 / 2 + 0.25 / 3, rel=1e-12)
    assert tail_intensity_mass(ws, 5) == 0.0
    assert tail_intensity_mass(
        WeightSequence.explicit((1.0, 0.5), tail="const"), 3
    ) == math.inf
    with pytest.raises(ValueError):
        tail_intensity_mass(WeightSequence.uniform(), -1)
