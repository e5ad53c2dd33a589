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

``STATISTICS`` is the one grammar of statistic selectors: ``permcycles
exact`` and cdf experiments both resolve names through ``parse_statistic``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .sampler import Permutation

__all__ = [
    "FixedPointSummary",
    "CycleStatistics",
    "Statistic",
    "STATISTICS",
    "parse_statistic",
    "sum_of_k_cycles",
    "cycle_ranges",
    "fixed_point_summary",
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


class Statistic(NamedTuple):
    """One statistic of the registry; a selector names it as ``name`` or ``name:k``."""

    name: str  # canonical name: the selector the oracle parses
    alias: str | None  # a second name; with law_k set, the alias alone means k = law_k
    min_k: int | None  # least cycle length k it takes; None: it takes no k
    law: str | None  # its limiting law in limit_laws.LAW_NAMES; None: it has none
    law_k: int | None  # the one k at which it has that law; None: every k
    reducer: str | None  # the reducer of this module a cdf run reads it off per draw
    field: int | None  # index into the reducer's result; None: the result itself

    def forms(self) -> tuple[str, ...]:
        """The selector forms naming this statistic, e.g. ``sum:<k>`` and ``S1``."""
        with_k = ":<k>" if self.min_k is not None else ""
        out = (self.name + with_k,)
        if self.alias:
            out += (self.alias if self.law_k is not None else self.alias + with_k,)
        return out

    def selector(self, k: int | None) -> str:
        """The canonical selector, which the oracle accepts."""
        return self.name if k is None else f"{self.name}:{k}"

    def law_at(self, k: int | None) -> str | None:
        """The limiting law of the statistic at cycle length k, or None."""
        return self.law if self.law_k is None or k == self.law_k else None


STATISTICS = (
    Statistic("count", None, 1, None, None, None, None),
    Statistic("sum", "S1", 1, "S1", 1, "sum_of_k_cycles", None),
    Statistic("min_range", "minrange", 2, "minrange", None, "cycle_ranges", 0),
    Statistic("max_range", "maxrange", 2, "maxrange", None, "cycle_ranges", 1),
    Statistic("min_fixed", "m", None, "m", None, "fixed_point_summary", 0),
    Statistic("max_fixed", "M", None, "M", None, "fixed_point_summary", 1),
    Statistic("min_spacing", "delta", None, "delta", None, "fixed_point_summary", 2),
    Statistic("max_spacing", "Delta", None, "Delta", None, "fixed_point_summary", 3),
    Statistic("cycle_type", None, None, None, None, None, None),
)
_BY_NAME = {name: s for s in STATISTICS for name in (s.name, s.alias) if name}


def parse_statistic(text: str) -> tuple[Statistic, int | None]:
    """The statistic a selector names and its cycle length k (None when it takes none)."""
    name, colon, arg = text.partition(":")
    entry = _BY_NAME.get(name)
    if entry is None:
        known = ", ".join(f for s in STATISTICS for f in s.forms())
        raise ValueError(f"unknown statistic {text!r}; known: {known}")
    if entry.min_k is None or (name == entry.alias and entry.law_k is not None):
        if colon:
            raise ValueError(f"statistic {text!r} takes no cycle length")
        return entry, entry.law_k
    try:
        k = int(arg)
    except ValueError:
        raise ValueError(f"statistic {text!r} needs an integer cycle length k") from None
    if k < entry.min_k:
        raise ValueError(f"statistic {text!r} needs a cycle length k >= {entry.min_k}")
    return entry, k
