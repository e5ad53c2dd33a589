"""Brute-force ground truth on small symmetric groups.

Everything in this module enumerates S_n outright (n <= 8), so its answers
are exact up to float rounding.  It deliberately shares no code with the
sampler, the recurrence, or the statistics modules: those are the code paths
it exists to check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .weights import WeightSequence, DegenerateModelError

__all__ = [
    "MAX_ENUM_N",
    "enumerate_h",
    "exact_statistic_distribution",
    "exact_cycle_probability",
    "ExactDistribution",
    "CycleProbability",
    "EnumerationLimitError",
    "InvalidCycleError",
]

MAX_ENUM_N = 8


class EnumerationLimitError(ValueError):
    """Requested n is past the full-enumeration resource bound."""


class InvalidCycleError(ValueError):
    """A requested cycle collection is not a valid disjoint cycle family."""


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > MAX_ENUM_N:
        raise EnumerationLimitError(
            f"full enumeration of S_{n} exceeds the n <= {MAX_ENUM_N} bound"
        )


def _trace(image: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # deliberately local: must stay independent of the sampler's tracer
    n = len(image)
    seen = bytearray(n + 1)
    out = []
    for s in range(1, n + 1):
        if seen[s]:
            continue
        cyc = [s]
        seen[s] = 1
        j = image[s - 1]
        while j != s:
            cyc.append(j)
            seen[j] = 1
            j = image[j - 1]
        out.append(tuple(cyc))
    return tuple(out)


@lru_cache(maxsize=32)
def _cycle_type_counts(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """How many permutations of [n] have each cycle type (ascending lengths)."""
    counts: dict[tuple[int, ...], int] = {}
    for image in itertools.permutations(range(1, n + 1)):
        t = tuple(sorted(len(c) for c in _trace(image)))
        counts[t] = counts.get(t, 0) + 1
    return tuple(sorted(counts.items()))


def enumerate_h(ws: WeightSequence, n: int) -> float:
    """h_n computed by summing the weight of every permutation of [n]."""
    _check_n(n)
    parts = [
        count * math.prod(ws.theta(k) for k in ctype)
        for ctype, count in _cycle_type_counts(n)
    ]
    return math.fsum(parts) / math.factorial(n)


@dataclass(frozen=True)
class ExactDistribution:
    """A finite exact pmf: sorted support values with their probabilities."""

    support: tuple
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        if len(self.support) != len(self.probabilities):
            raise ValueError("support and probabilities differ in length")
        total = float(np.sum(self.probabilities))
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-12):
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    def pmf(self) -> dict:
        return {v: float(p) for v, p in zip(self.support, self.probabilities)}

    def mean(self) -> float:
        return float(np.dot([float(v) for v in self.support], self.probabilities))


def _spacing_summary(cycles, n: int) -> tuple[int, int, int, int]:
    fps = sorted(c[0] for c in cycles if len(c) == 1)
    if not fps:
        return (n + 1, 0, n + 1, n + 1)
    gaps = [fps[0]]
    gaps += [b - a for a, b in zip(fps, fps[1:])]
    gaps.append(n + 1 - fps[-1])
    return (fps[0], fps[-1], min(gaps), max(gaps))


def _parse_statistic(statistic: str, n: int):
    """Map a statistic selector to a function of the cycle decomposition."""
    name, sep, arg = statistic.partition(":")
    fixed_idx = {"min_fixed": 0, "max_fixed": 1, "min_spacing": 2, "max_spacing": 3}
    if sep and (name == "cycle_type" or name in fixed_idx):
        raise ValueError(f"statistic {statistic!r} takes no cycle length")
    if name == "cycle_type":
        return lambda cycles: tuple(sorted(len(c) for c in cycles))
    if name in ("count", "sum", "min_range", "max_range"):
        try:
            k = int(arg)
        except ValueError:
            raise ValueError(f"statistic {statistic!r} needs an integer cycle length") from None
        if k < 1 or (name in ("min_range", "max_range") and k < 2):
            raise ValueError(f"statistic {statistic!r} has an out-of-range cycle length")
        if name == "count":
            return lambda cycles: sum(1 for c in cycles if len(c) == k)
        if name == "sum":
            return lambda cycles: sum(sum(c) for c in cycles if len(c) == k)
        if name == "min_range":
            return lambda cycles: min(
                (max(c) - min(c) for c in cycles if len(c) == k), default=n
            )
        return lambda cycles: max(
            (max(c) - min(c) for c in cycles if len(c) == k), default=0
        )
    if name in fixed_idx:
        i = fixed_idx[name]
        return lambda cycles: _spacing_summary(cycles, n)[i]
    raise ValueError(f"unknown statistic selector {statistic!r}")


def exact_statistic_distribution(
    ws: WeightSequence, n: int, statistic: str
) -> ExactDistribution:
    """Exact law of a cycle statistic under the weighted measure on S_n.

    Selectors: ``cycle_type``, ``count:<k>``, ``sum:<k>``, ``min_range:<k>``,
    ``max_range:<k>``, ``min_fixed``, ``max_fixed``, ``min_spacing``,
    ``max_spacing``.
    """
    _check_n(n)
    stat_fn = _parse_statistic(statistic, n)
    mass: dict = {}
    total = 0.0
    for image in itertools.permutations(range(1, n + 1)):
        cycles = _trace(image)
        w = math.prod(ws.theta(len(c)) for c in cycles)
        total += w
        v = stat_fn(cycles)
        mass[v] = mass.get(v, 0.0) + w
    if total == 0.0:
        raise DegenerateModelError(
            f"every permutation of [{n}] has zero weight under {ws.spec_string()!r}"
        )
    support = tuple(sorted(mass))
    probs = np.array([mass[v] / total for v in support])
    return ExactDistribution(support, probs)


@dataclass(frozen=True)
class CycleProbability:
    """The probability that given cycles all appear, computed two ways."""

    enumeration: float
    closed_form: float


def _validate_cycles(n: int, cycles) -> list[tuple[int, ...]]:
    clean = []
    seen: set[int] = set()
    for c in cycles:
        tup = tuple(int(v) for v in c)
        if not tup:
            raise InvalidCycleError("empty cycle")
        if any(v < 1 or v > n for v in tup):
            raise InvalidCycleError(f"cycle {tup!r} leaves the ground set 1..{n}")
        if tup[0] != min(tup):
            raise InvalidCycleError(f"cycle {tup!r} is not written smallest-first")
        if len(set(tup)) != len(tup) or seen & set(tup):
            raise InvalidCycleError(f"cycle {tup!r} overlaps another cycle or itself")
        seen |= set(tup)
        clean.append(tup)
    return clean


def exact_cycle_probability(ws: WeightSequence, n: int, cycles) -> CycleProbability:
    """P(all the given disjoint cycles appear), by enumeration and in closed form.

    The closed form is

        h_{n-s} * (n-s)! / (h_n * n!) * prod_j theta_{k_j}

    where s is the number of elements the cycles occupy and k_j their
    lengths.  Both channels use only this module's own enumeration-based
    h values, so agreement between them is a genuine consistency check on
    the formula rather than on shared code.
    """
    _check_n(n)
    clean = _validate_cycles(n, cycles)
    s = sum(len(c) for c in clean)

    required: dict[int, int] = {}
    for c in clean:
        for a, b in zip(c, c[1:] + (c[0],)):
            required[a] = b

    total = 0.0
    hit = 0.0
    for image in itertools.permutations(range(1, n + 1)):
        w = math.prod(ws.theta(len(c)) for c in _trace(image))
        total += w
        if all(image[a - 1] == b for a, b in required.items()):
            hit += w
    if total == 0.0:
        raise DegenerateModelError(
            f"every permutation of [{n}] has zero weight under {ws.spec_string()!r}"
        )
    enum_p = hit / total

    h_n = enumerate_h(ws, n)
    h_rest = enumerate_h(ws, n - s)
    prod_theta = math.prod(ws.theta(len(c)) for c in clean)
    closed = (
        h_rest * math.factorial(n - s) / (h_n * math.factorial(n)) * prod_theta
    )
    return CycleProbability(enumeration=enum_p, closed_form=closed)
