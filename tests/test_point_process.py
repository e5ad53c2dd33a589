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
from perms import from_image
from permcycles import (
    BoxSpec,
    BoxSpecError,
    BoxUnion,
    PermutationSampler,
    RngStream,
    WeightSequence,
    avoidance_limit,
    count_in,
    intensity,
    norm_constants,
    parse_boxes,
    parse_weights,
    point_measure,
    simulate_limit_process,
    tail_intensity_mass,
)
from permcycles import point_process
from permcycles.point_process import intersect_boxes, limit_block_counts


def _box(level, *bounds, open_upper=()):
    return BoxSpec(level, tuple(lo for lo, _ in bounds), tuple(hi for _, hi in bounds),
                   frozenset(open_upper))


def _reference_contains(box, point):
    """Per-point membership in the box intersected with the wedge W_k, kept as a reference."""
    if len(point) != box.level or point[0] != min(point):
        return False
    return all(
        lo <= x and (x < hi if i in box.open_upper else x <= hi)
        for i, (lo, hi, x) in enumerate(zip(box.lo, box.hi, point), start=1)
    )


def _union_contains(union, level, point):
    """Membership of one point in the union and the wedge W_level, through ``BoxUnion.inside``."""
    return len(point) == level and bool(union.inside(level, np.array([point], dtype=float))[0])


def _as_tuples(points):
    """One draw's {k: (P, k) array} as {k: tuple of point tuples}, for exact comparison."""
    return {k: tuple(map(tuple, v.tolist())) for k, v in points.items()}


def _min_first(point):
    """Rotate a tuple so its smallest entry comes first (cyclic order kept)."""
    if not point:
        raise ValueError("cannot rotate an empty point")
    i = point.index(min(point))
    return point[i:] + point[:i]


def _box_volume(box):
    """Wedge volume of one box: a one-row call of the kernel ``intensity`` uses."""
    return float(point_process._wedge_volumes(np.array([box.lo]), np.array([box.hi]))[0])


def _reference_box_volume(box):
    """The earlier polynomial-by-piece wedge volume, kept as a reference."""
    a1, b1 = box.lo[0], box.hi[0]
    if box.level == 1:
        return b1 - a1
    rest = list(zip(box.lo[1:], box.hi[1:]))
    cuts = {a1, b1}
    for itv in rest:
        for p in itv:
            if a1 < p < b1:
                cuts.add(p)
    pts = sorted(cuts)
    total = 0.0
    for lo, hi in zip(pts, pts[1:]):
        if hi <= lo:
            continue
        poly = np.polynomial.Polynomial([1.0])
        dead = False
        for itv_lo, itv_hi in rest:
            if lo >= itv_hi:
                dead = True
                break
            if hi <= itv_lo:
                poly = poly * (itv_hi - itv_lo)
            else:
                poly = poly * np.polynomial.Polynomial([itv_hi, -1.0])
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
    pm = point_measure(from_image((1, 2)))
    assert _as_tuples(pm) == {1: ((0.5,), (1.0,))}
    assert pm[1].dtype == np.float64 and pm[1].shape == (2, 1)


def test_point_measure_transposition():
    pm = point_measure(from_image((2, 1)))
    assert _as_tuples(pm) == {2: ((0.5, 1.0),)}


def test_point_measure_mixed():
    pm = point_measure(from_image((1, 3, 2)))
    assert _as_tuples(pm) == {1: ((1 / 3,),), 2: ((2 / 3, 1.0),)}
    assert 5 not in pm
    assert sum(len(pts) for pts in pm.values()) == 2


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**31))
def test_point_measure_mass_identity(n, seed):
    ws = WeightSequence.ewens(1.5)
    perm = PermutationSampler(ws, norm_constants(ws, 30)).sample(n, RngStream(seed, 0))
    pm = point_measure(perm)
    # each level holds its cycles by increasing minimum, each entry exactly i / n
    assert _as_tuples(pm) == {k: tuple(tuple(i / n for i in c) for c in perm.cycles if len(c) == k)
                              for k in {len(c) for c in perm.cycles}}
    # sum over levels of k * (number of level-k points) recovers n
    assert sum(k * len(pts) for k, pts in pm.items()) == n
    for k, pts in pm.items():
        assert pts.shape == (len(pts), k) and len(pts) > 0
        for p in pts.tolist():
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
    for lo, hi in ((0.5, 0.2), (-0.1, 0.5), (0.5, 1.2), (0.0, math.nan)):
        with pytest.raises(BoxSpecError, match="not inside"):
            BoxSpec(1, (lo,), (hi,))
    box = BoxSpec(1, (0.0,), (0.5,), frozenset({1}))
    assert _reference_contains(box, (0.0,))
    assert _reference_contains(box, (0.25,))
    assert not _reference_contains(box, (0.5,))
    assert _reference_contains(BoxSpec(1, (0.0,), (0.5,)), (0.5,))


def test_box_spec_validation_and_membership():
    with pytest.raises(BoxSpecError, match=">= 1"):
        BoxSpec(0, (), ())
    with pytest.raises(BoxSpecError, match="needs 2"):
        BoxSpec(2, (0.0,), (1.0,))
    with pytest.raises(BoxSpecError, match="needs 2"):
        BoxSpec(2, (0.0, 0.0), (1.0,))
    for bad in (0, 3):
        with pytest.raises(BoxSpecError, match=f"open= index {bad} outside"):
            BoxSpec(2, (0.0, 0.0), (1.0, 1.0), frozenset({bad}))
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
    assert (c.lo, c.hi, c.open_upper) == ((0.4,), (0.7,), frozenset())
    with pytest.raises(ValueError):
        intersect_boxes(a, _box(2, (0.0, 1.0), (0.0, 1.0)))
    # touching boxes intersect in a degenerate slab of volume zero
    d = intersect_boxes(_box(1, (0.0, 0.5)), _box(1, (0.5, 1.0)))
    assert d is not None
    assert _box_volume(d) == 0.0
    # the binding upper end keeps its closure; a tie is open if either box is open there
    e = intersect_boxes(_box(2, (0.0, 0.7), (0.0, 0.5), open_upper=(1, 2)),
                        _box(2, (0.2, 0.6), (0.1, 0.5), open_upper=()))
    assert (e.lo, e.hi, e.open_upper) == ((0.2, 0.1), (0.6, 0.5), frozenset({2}))
    f = intersect_boxes(_box(1, (0.0, 0.5)), _box(1, (0.0, 0.5), open_upper=(1,)))
    assert f.open_upper == frozenset({1})


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
        for i, (lo, hi) in enumerate(zip(box.lo, box.hi)):
            inside &= (pts[:, i] >= lo) & (pts[:, i] <= hi)
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
    assert a and _as_tuples(a) == _as_tuples(b)
    with pytest.raises(ValueError):
        simulate_limit_process(ws, 0, RngStream(0, 0))


def test_simulate_limit_process_empty_for_zero_weights():
    ws = WeightSequence.explicit((0.0,), tail="zero")
    pm = simulate_limit_process(ws, 4, RngStream(0, 0))
    assert pm == {}


def test_simulate_limit_process_level_means():
    ws = WeightSequence.ewens(2.0)
    draws = 60_000
    rng = RngStream(404, 0)
    counts = np.zeros((draws, 3))
    for i in range(draws):
        pm = simulate_limit_process(ws, 3, rng)
        for k in (1, 2, 3):
            counts[i, k - 1] = len(pm.get(k, ()))
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
        pts.extend(_as_tuples(pm).get(2, ()))
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
        assert _as_tuples(got) == want
        assert all(v.shape == (len(v), k) for k, v in got.items())


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
    want = [count_in({k: np.array(pts) for k, pts in lv.items()}, union) for lv in levels]
    assert got.tolist() == want
    assert min(want) == 0 and max(want) >= 2


def test_limit_block_counts_do_not_depend_on_the_slice_size(monkeypatch):
    ws = WeightSequence.ewens(40.0)
    union = parse_boxes("box:k=1;0.2,0.5;box:k=1;0.4,0.9;box:k=2;0,0.5;0.25,1;open=1")
    want = limit_block_counts(ws, 2, union, 300, RngStream(3, (1, 2)))
    monkeypatch.setattr(point_process, "_KERNEL_BLOCK", 64)
    got = limit_block_counts(ws, 2, union, 300, RngStream(3, (1, 2)))
    assert got.tolist() == want.tolist()


def test_simulate_limit_process_does_not_depend_on_the_slice_size(monkeypatch):
    ws = WeightSequence.ewens(40.0)
    want = simulate_limit_process(ws, 2, RngStream(3, (1, 5)))
    monkeypatch.setattr(point_process, "_KERNEL_BLOCK", 8)  # 4 level-1 or 2 level-2 points a slice
    got = simulate_limit_process(ws, 2, RngStream(3, (1, 5)))
    assert _as_tuples(got) == _as_tuples(want) and len(want[1]) > 8


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
    pm = point_measure(from_image((2, 1, 4, 3)))
    # level-2 points: (0.25, 0.5) and (0.75, 1.0)
    union = parse_boxes("box:k=2;0,0.5;0,0.5")
    assert count_in(pm, union) == 1 and type(count_in(pm, union)) is int
    # opening the second upper endpoint expels (0.25, 0.5)
    assert count_in(pm, parse_boxes("box:k=2;0,0.5;0,0.5;open=2")) == 0
    # level-1 boxes see nothing here
    assert count_in(pm, parse_boxes("box:k=1;0,1")) == 0


def test_count_in_multi_level():
    pm = point_measure(from_image((1, 3, 2)))
    union = parse_boxes("box:k=1;0,0.4 ; box:k=2;0.5,1;0.5,1")
    assert count_in(pm, union) == 2


def test_count_in_matches_box_contains_with_open_endpoints():
    rnd = random.Random(5)
    grid = [i / 10 for i in range(11)]
    for _ in range(200):
        boxes = []
        for _ in range(rnd.randint(1, 4)):
            k = rnd.randint(1, 3)
            bounds = [sorted(rnd.sample(grid, 2)) for _ in range(k)]
            open_upper = [i for i in range(1, k + 1) if rnd.random() < 0.5]
            boxes.append(_box(k, *bounds, open_upper=open_upper))
        union = BoxUnion(tuple(boxes))
        # lattice points land on the endpoints; some are not smallest-first
        levels = {k: tuple(tuple(rnd.choice(grid) for _ in range(k)) for _ in range(8))
                  for k in (1, 2, 3)}
        want = sum(
            1 for k in union.levels() for p in levels[k]
            if any(_reference_contains(b, p) for b in union.boxes_at(k))
        )
        assert count_in({k: np.array(pts) for k, pts in levels.items()}, union) == want


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
    assert box.open_upper == frozenset({1, 2})
    assert (box.lo, box.hi) == ((0.0, 0.0), (0.5, 0.5))
    # every other end is closed
    assert _union_contains(union, 2, (0.0, 0.0))
    assert not _union_contains(union, 2, (0.25, 0.5))
    assert parse_boxes("box:k=2;0,0.5;0,0.5").boxes[0].open_upper == frozenset()


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
        ("box:k=1;0,1box:k=1;0,1", "not numeric"),
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
    # a constant tail of 0 stops at the list, a positive one never does
    assert tail_intensity_mass(parse_weights("list:1,0"), 0) == 1.0
    assert tail_intensity_mass(parse_weights("list:0.5,2"), 5) == math.inf
    with pytest.raises(ValueError):
        tail_intensity_mass(WeightSequence.uniform(), -1)
