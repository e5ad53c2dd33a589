"""Scaled cycle point measures, box geometry, and the limiting point process.

Each cycle of a permutation of [n], written smallest element first, becomes
one point of a multi-level point measure: the k-cycle (i_1, ..., i_k) turns
into (i_1/n, ..., i_k/n), a point of the level-k wedge

    W_k = { x in [0,1]^k : x_1 = min(x_1, ..., x_k) }.

As n grows these measures converge to a Poisson point process whose level-k
intensity is theta_k times Lebesgue measure restricted to W_k.  The module
provides the box algebra needed to evaluate that intensity exactly on finite
unions of axis-aligned boxes, counting of measure points in such unions, and
simulation of the limiting process itself.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .rng import RngStream
from .weights import WeightSequence

__all__ = [
    "Interval",
    "BoxSpec",
    "BoxUnion",
    "PointMeasure",
    "BoxSpecError",
    "parse_boxes",
    "intersect_boxes",
    "intensity",
    "avoidance_limit",
    "point_measure",
    "count_in",
    "count_by_draw",
    "simulate_limit_process",
    "limit_block_counts",
    "tail_intensity_mass",
]

_MAX_BOXES_PER_LEVEL = 16
_KERNEL_BLOCK = 1 << 18  # quadrature values per kernel pass (2k * k a row): temporaries ~2 MB


class BoxSpecError(ValueError):
    """A box specification is malformed or out of range."""


@dataclass(frozen=True)
class Interval:
    """A subinterval of [0,1] with configurable endpoint closure."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise BoxSpecError(
                f"interval [{self.lo!r}, {self.hi!r}] is not inside [0, 1]"
            )


@dataclass(frozen=True)
class BoxSpec:
    """An axis-aligned box at one level: a product of per-coordinate intervals."""

    level: int
    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        if self.level < 1:
            raise BoxSpecError(f"box level must be >= 1, got {self.level}")
        if len(self.intervals) != self.level:
            raise BoxSpecError(
                f"box at level {self.level} needs {self.level} intervals, "
                f"got {len(self.intervals)}"
            )


@dataclass(frozen=True)
class BoxUnion:
    """A finite union of boxes, possibly spanning several levels."""

    boxes: tuple[BoxSpec, ...]

    def levels(self) -> tuple[int, ...]:
        return tuple(sorted({b.level for b in self.boxes}))

    def boxes_at(self, level: int) -> tuple[BoxSpec, ...]:
        return tuple(b for b in self.boxes if b.level == level)

    def inside(self, level: int, points: np.ndarray) -> np.ndarray:
        """Which rows of the (P, level) array ``points`` lie in the union and in the wedge W_level.

        One broadcast comparison against every level-``level`` box; its
        temporaries are (P, boxes, level) arrays, so callers bound P.
        """
        if level not in self._closed_bounds:
            return np.zeros(len(points), dtype=bool)
        lows, highs = self._closed_bounds[level]
        p = points[:, None, :]
        hit = ((lows <= p) & (p <= highs)).all(axis=2).any(axis=1)
        return hit & (points[:, 0] == points.min(axis=1))

    @cached_property
    def _closed_bounds(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per level, the (boxes, level) arrays of closed float bounds (lows, highs): an open
        end b moves one float inward, since on floats x < b exactly when x <= nextafter(b, -inf)."""
        out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for k in self.levels():
            ivs = [b.intervals for b in self.boxes_at(k)]
            out[k] = (
                np.array([[iv.lo if iv.lo_closed else math.nextafter(iv.lo, math.inf)
                           for iv in box] for box in ivs]),
                np.array([[iv.hi if iv.hi_closed else math.nextafter(iv.hi, -math.inf)
                           for iv in box] for box in ivs]))
        return out


def _wedge_volumes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Wedge volumes of the boxes prod_i [lo[r, i], hi[r, i]], one per row r.

    The wedge pins the first coordinate as the minimum, so a box's volume is
    integral_{a_1}^{b_1} prod_{i>=2} max(0, b_i - max(a_i, x)) dx.  Between sorted cut
    points (a_1, b_1, and each a_i, b_i clipped into [a_1, b_1]) the integrand is a
    polynomial of degree <= k-1: k-node Gauss-Legendre is exact.
    """
    k = lo.shape[1]
    step = max(1, _KERNEL_BLOCK // (2 * k * k))
    if len(lo) > step:
        return np.concatenate([_wedge_volumes(lo[i:i + step], hi[i:i + step])
                               for i in range(0, len(lo), step)])
    a1, b1 = lo[:, :1], hi[:, :1]
    cuts = np.sort(np.hstack([a1, b1, np.clip(lo[:, 1:], a1, b1), np.clip(hi[:, 1:], a1, b1)]))
    half = (cuts[:, 1:] - cuts[:, :-1]) / 2
    nodes, weights = np.polynomial.legendre.leggauss(k)
    x = (cuts[:, 1:] + cuts[:, :-1])[..., None] / 2 + half[..., None] * nodes
    f = np.ones_like(x)
    for i in range(1, k):
        f *= np.maximum(hi[:, i, None, None] - np.maximum(lo[:, i, None, None], x), 0.0)
    return (f @ weights * half).sum(axis=1)


def intersect_boxes(a: BoxSpec, b: BoxSpec) -> BoxSpec | None:
    """Intersection of two same-level boxes, or None when empty."""
    if a.level != b.level:
        raise ValueError("cannot intersect boxes at different levels")
    out = []
    for ia, ib in zip(a.intervals, b.intervals):
        # the binding constraint on each side carries its closure flag along
        if ia.lo > ib.lo:
            lo, lo_closed = ia.lo, ia.lo_closed
        elif ib.lo > ia.lo:
            lo, lo_closed = ib.lo, ib.lo_closed
        else:
            lo, lo_closed = ia.lo, ia.lo_closed and ib.lo_closed
        if ia.hi < ib.hi:
            hi, hi_closed = ia.hi, ia.hi_closed
        elif ib.hi < ia.hi:
            hi, hi_closed = ib.hi, ib.hi_closed
        else:
            hi, hi_closed = ia.hi, ia.hi_closed and ib.hi_closed
        if lo > hi:
            return None
        out.append(Interval(lo, hi, lo_closed, hi_closed))
    return BoxSpec(a.level, tuple(out))


def intensity(ws: WeightSequence, union: BoxUnion) -> float:
    """Limiting expected point count in the union: sum_k theta_k * vol_k.

    vol_k is the wedge volume of the level-k part of the union, by inclusion-
    exclusion over its B boxes.  All 2^B subset intersections are built at
    once as (2^B, k) bound arrays by bit doubling: the subsets holding box j
    are those without it, clipped by box j, with the opposite sign.  One
    kernel call (in fixed-size blocks) gives every nonempty one's volume and
    ``math.fsum`` adds them: O(2^B * k^3) work and O(2^B * k) memory per
    level, so B stays capped at 16 (2^16 rows).
    """
    total = 0.0
    for k in union.levels():
        boxes = union.boxes_at(k)
        if len(boxes) > _MAX_BOXES_PER_LEVEL:
            raise ValueError(
                f"{len(boxes)} boxes at level {k}: inclusion-exclusion over more "
                f"than {_MAX_BOXES_PER_LEVEL} is not supported"
            )
        # row 0 is the empty subset: the unit cube, which clips nothing
        lo, hi = np.zeros((2 ** len(boxes), k)), np.ones((2 ** len(boxes), k))
        sign = np.full(2 ** len(boxes), -1.0)
        for j, b in enumerate(boxes):
            h = 2 ** j
            np.maximum(lo[:h], [iv.lo for iv in b.intervals], out=lo[h:2 * h])
            np.minimum(hi[:h], [iv.hi for iv in b.intervals], out=hi[h:2 * h])
            sign[h:2 * h] = -sign[:h]
        rows = np.flatnonzero((lo <= hi).all(axis=1))[1:]
        total += ws.theta(k) * math.fsum(sign[rows] * _wedge_volumes(lo[rows], hi[rows]))
    return total


def avoidance_limit(ws: WeightSequence, union: BoxUnion) -> float:
    """Limiting probability that the union contains no point: exp(-intensity)."""
    return math.exp(-intensity(ws, union))


@dataclass(frozen=True, eq=False)
class PointMeasure:
    """A multi-level collection of wedge points.

    ``n`` is the size of the permutation the measure came from, or 0 for a
    draw of the limiting process.  ``levels`` maps each occupied level k to
    the tuple of its points.
    """

    n: int
    levels: dict[int, tuple[tuple[float, ...], ...]] = field(default_factory=dict)

    def restrict(self, level: int) -> tuple[tuple[float, ...], ...]:
        return self.levels.get(level, ())


def point_measure(perm) -> PointMeasure:
    """The scaled cycle point measure of a permutation."""
    n = perm.n
    levels: dict[int, list] = {}
    for c in perm.cycles:
        levels.setdefault(len(c), []).append(tuple(i / n for i in c))
    return PointMeasure(n, {k: tuple(v) for k, v in levels.items()})


def count_by_draw(
    union: BoxUnion, level: int, points: np.ndarray, draw: np.ndarray, draws: int
) -> np.ndarray:
    """Per-draw number of level-``level`` points inside the union.

    Row r of the (P, level) array ``points`` is a point of draw ``draw[r]``,
    one of ``draws`` draws; the result has one count per draw.
    """
    return np.bincount(draw[union.inside(level, points)], minlength=draws)


def count_in(pm: PointMeasure, union: BoxUnion) -> int:
    """Number of points of the measure inside the union (level-aware)."""
    total = 0
    for k in union.levels():
        if pts := pm.restrict(k):
            draw = np.zeros(len(pts), dtype=np.intp)
            total += int(count_by_draw(union, k, np.array(pts, dtype=float), draw, 1)[0])
    return total


def _limit_slices(ws: WeightSequence, k_max: int, draws: int, gen: np.random.Generator):
    """Points of ``draws`` draws of the limiting process, level by level, in slices.

    Per level k <= k_max, one Poisson(theta_k / k) count per draw, then the
    draws' points in draw order, as uniform rows of the cube rotated smallest
    entry first (exactly uniform on the wedge W_k).  Yields (k, ends, start,
    rows): level k's points of draw d are its rows ends[d-1]..ends[d]-1, and
    ``rows`` are those from ``start`` on.  A slice and its doubled copy hold
    at most ``_KERNEL_BLOCK`` values; consecutive ``gen.random`` calls return
    the same doubles as one call, so slicing does not change the points.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    for k in range(1, k_max + 1):
        ends = gen.poisson(ws.theta(k) / k, size=draws).cumsum()
        total = int(ends[-1]) if draws else 0
        step = max(1, _KERNEL_BLOCK // (2 * k))
        for start in range(0, total, step):
            rows = gen.random((min(step, total - start), k))
            if k > 1:
                # row r of the doubled rows, read from its argmin on, is row r rotated
                first = rows.argmin(axis=1) + np.arange(0, 2 * rows.size, 2 * k)
                rows = np.hstack([rows, rows]).ravel()[first[:, None] + np.arange(k)]
            yield k, ends, start, rows


def simulate_limit_process(
    ws: WeightSequence, k_max: int, rng: RngStream
) -> PointMeasure:
    """One draw of the limiting Poisson process, truncated to levels <= k_max.

    Level k receives Poisson(theta_k / k) points; each point is uniform on
    the cube and rotated smallest-entry-first, which is exactly uniform on
    the wedge W_k.  This is the one-draw block of ``limit_block_counts``.
    """
    levels: dict[int, tuple] = {}
    for k, _, _, rows in _limit_slices(ws, k_max, 1, rng.gen):
        levels[k] = levels.get(k, ()) + tuple(map(tuple, rows.tolist()))
    return PointMeasure(0, levels)


def limit_block_counts(
    ws: WeightSequence, k_max: int, union: BoxUnion, draws: int, rng: RngStream
) -> np.ndarray:
    """Points inside the union of each of ``draws`` draws of the limiting process.

    All draws come from the one stream, level by level as in
    ``simulate_limit_process``: one Poisson call for the block's counts, then
    its uniforms.  Memory stays bounded by the slice size whatever theta is.
    """
    counts = np.zeros(draws, dtype=np.int64)
    levels = union.levels()
    for k, ends, start, rows in _limit_slices(ws, k_max, draws, rng.gen):
        if k in levels:
            draw = np.searchsorted(ends, np.arange(start, start + len(rows)), side="right")
            counts += count_by_draw(union, k, rows, draw, draws)
    return counts


def tail_intensity_mass(ws: WeightSequence, k_max: int) -> float:
    """Total limiting intensity past level k_max: sum_{k > k_max} theta_k / k.

    Infinite for weight sequences that do not decay (uniform, ewens,
    polynomial with power >= 0); finite closed forms otherwise.  Quantifies
    what a level-truncated simulation of the limit process ignores.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if ws.kind in ("uniform", "ewens"):
        return math.inf
    if ws.kind == "polynomial":
        if ws.power >= 0:
            return math.inf
        from scipy.special import zeta

        # sum_{k>k_max} c * k^(power-1) = c * zeta(1-power, k_max+1)
        return float(ws.coeff * zeta(1.0 - ws.power, k_max + 1))
    # explicit list
    fill = ws.values[-1] if ws.tail == "const" else 0.0
    if fill > 0:
        return math.inf
    listed = sum(
        v / k for k, v in enumerate(ws.values, start=1) if k > k_max
    )
    return float(listed)


_BOX_HEADER = re.compile(r"box\s*:\s*k\s*=\s*(\d+)$", re.IGNORECASE)
_OPEN_DIRECTIVE = re.compile(r"open\s*=\s*(.*)$", re.IGNORECASE)


def parse_boxes(text: str) -> BoxUnion:
    """Parse a box-union specification string.

    Grammar: semicolon-separated segments.  ``box:k=<level>`` opens a box,
    followed by ``<lo>,<hi>`` interval segments (one per coordinate) and an
    optional ``open=<i,j,...>`` segment marking which intervals (1-based)
    are open at their upper endpoint.  An empty string denotes the empty
    union.
    """
    segments = [s.strip() for s in text.split(";") if s.strip()]
    boxes: list[BoxSpec] = []
    level: int | None = None
    intervals: list[tuple[float, float]] = []
    open_upper: set[int] = set()

    def flush() -> None:
        nonlocal level, intervals, open_upper
        if level is None:
            return
        if len(intervals) != level:
            raise BoxSpecError(
                f"box at level {level} has {len(intervals)} intervals, needs {level}"
            )
        if any(i < 1 or i > level for i in open_upper):
            bad = next(i for i in open_upper if i < 1 or i > level)
            raise BoxSpecError(f"open= index {bad} outside 1..{level}")
        ivs = tuple(
            Interval(lo, hi, hi_closed=(idx not in open_upper))
            for idx, (lo, hi) in enumerate(intervals, start=1)
        )
        boxes.append(BoxSpec(level, ivs))
        level, intervals, open_upper = None, [], set()

    for seg in segments:
        header = _BOX_HEADER.match(seg)
        if header:
            flush()
            level = int(header.group(1))
            if level < 1:
                raise BoxSpecError(f"box level must be >= 1 in {seg!r}")
            continue
        if level is None:
            raise BoxSpecError(f"segment {seg!r} appears before any box:k= header")
        open_m = _OPEN_DIRECTIVE.match(seg)
        if open_m:
            body = open_m.group(1)
            try:
                open_upper = {int(s) for s in body.split(",") if s.strip()}
            except ValueError:
                raise BoxSpecError(f"open= list {body!r} is not integers") from None
            continue
        parts = seg.split(",")
        if len(parts) != 2:
            raise BoxSpecError(f"interval segment {seg!r} is not '<lo>,<hi>'")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError:
            raise BoxSpecError(f"interval segment {seg!r} is not numeric") from None
        if not (0.0 <= lo <= hi <= 1.0):
            raise BoxSpecError(f"interval {seg!r} is not inside [0, 1]")
        intervals.append((lo, hi))
    flush()
    return BoxUnion(tuple(boxes))
