"""Integer-valued cycle statistics of a permutation.

Everything here works on the raw integer permutation; division by n for
comparison with limiting laws happens at the caller.  Conventions when the
requested feature is absent:

* no k-cycle: smallest range r = n, largest range R = 0,
* no fixed point: smallest fixed point m = n + 1, largest M = 0, and both
  spacing extremes delta = Delta = n + 1 (one degenerate gap spanning the
  whole window; downstream reports flag this case in their metadata).

Fixed-point spacings are the gaps of the sorted fixed points inside the
window {1, ..., n} with both ends counted: for fixed points p_1 < ... < p_r
the multiset is {p_1, p_2 - p_1, ..., p_r - p_{r-1}, n + 1 - p_r}, which
always sums to n + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

from .point_process import PointMeasure
from .sampler import Permutation

__all__ = [
    "FixedPointSummary",
    "CycleStatistics",
    "sum_of_k_cycles",
    "cycle_ranges",
    "fixed_point_summary",
    "additive_statistic",
]


class FixedPointSummary(NamedTuple):
    min_point: int
    max_point: int
    min_spacing: int
    max_spacing: int


def sum_of_k_cycles(perm: Permutation, k: int) -> int:
    """Sum of all elements lying on k-cycles (0 when there are none)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return sum(sum(c) for c in perm.cycles if len(c) == k)


def cycle_ranges(perm: Permutation, k: int) -> tuple[int, int]:
    """(smallest, largest) spread max-min over k-cycles, k >= 2.

    Returns (n, 0) when the permutation has no k-cycle.
    """
    if k < 2:
        raise ValueError(f"cycle ranges need k >= 2, got {k}")
    spreads = [max(c) - min(c) for c in perm.cycles if len(c) == k]
    if not spreads:
        return (perm.n, 0)
    return (min(spreads), max(spreads))


def fixed_point_summary(perm: Permutation) -> FixedPointSummary:
    """Smallest/largest fixed point and smallest/largest spacing, with conventions."""
    n = perm.n
    # already sorted: cycles come in increasing order of their minima
    fps = [c[0] for c in perm.cycles if len(c) == 1]
    if not fps:
        return FixedPointSummary(n + 1, 0, n + 1, n + 1)
    gaps = [fps[0]]
    gaps += [b - a for a, b in zip(fps, fps[1:])]
    gaps.append(n + 1 - fps[-1])
    return FixedPointSummary(fps[0], fps[-1], min(gaps), max(gaps))


def additive_statistic(
    pm: PointMeasure, functions: Mapping[int, Callable[[tuple[float, ...]], float]]
) -> float:
    """sum over levels m and points x of f_m(x), for the provided levels.

    The callables are expected to be non-negative for the limit-law
    comparisons to make sense, but this is not enforced here.
    """
    total = 0.0
    for m, f in functions.items():
        for p in pm.restrict(m):
            total += f(p)
    return total


@dataclass(frozen=True)
class CycleStatistics:
    """One permutation's statistics bundle, read off its cycles."""

    n: int
    counts: dict[int, int]
    sums: dict[int, int]
    min_range: dict[int, int]
    max_range: dict[int, int]
    fixed: FixedPointSummary

    @classmethod
    def from_permutation(cls, perm: Permutation, k_max: int) -> "CycleStatistics":
        if k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {k_max}")
        n = perm.n
        counts = {k: 0 for k in range(1, k_max + 1)}
        sums = {k: 0 for k in range(1, k_max + 1)}
        spreads: dict[int, list[int]] = {k: [] for k in range(2, k_max + 1)}
        for c in perm.cycles:
            length = len(c)
            if length <= k_max:
                counts[length] += 1
                sums[length] += sum(c)
                if length >= 2:
                    spreads[length].append(max(c) - min(c))
        min_range = {
            k: (min(v) if v else n) for k, v in spreads.items()
        }
        max_range = {
            k: (max(v) if v else 0) for k, v in spreads.items()
        }
        return cls(n, counts, sums, min_range, max_range, fixed_point_summary(perm))
