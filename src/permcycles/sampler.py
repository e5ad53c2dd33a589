"""Exact sampling of permutations under cycle weights.

A draw has two steps.  First the cycle lengths k_1, k_2, ... are drawn one
after another: with m elements not yet assigned to a cycle, the next length
follows the exact law of the length of the cycle through the smallest of
them,

    P(length = k | m unassigned) = theta_k * h_{m-k} / (m * h_m),

until m reaches 0.  Then one uniform permutation of 1..n is cut into
consecutive blocks of lengths k_1, k_2, ...; each block, read left to right,
is one cycle.  The cycles are stored smallest element first, in increasing
order of their minima.

The weight of a permutation depends only on its cycle type, so given the
cycle type the weighted measure is uniform on the conjugacy class
(Arratia-Barbour-Tavare, Logarithmic Combinatorial Structures, 2003;
Betz-Ueltschi-Velenik, AAP 2011).  The length sequence has the law of the
cycle lengths listed by increasing minimum, so the cycle type has the
weighted law.  Cutting a uniform arrangement into blocks of fixed lengths
reaches each permutation of that cycle type in prod_j k_j * prod_l c_l!
ways (c_l the number of l-cycles: every cycle may start at any of its
elements, and cycles of equal length may trade blocks), the same count for
all of them, so the result is uniform on the class.  Exactness is gated
against full enumeration in the test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import RngStream
from .weights import (
    DegenerateModelError,
    NormalizationTable,
    WeightSequence,
)

__all__ = [
    "Permutation",
    "PermutationSampler",
    "cycle_length_distribution",
]

# Names how a draw consumes randomness; reports carry it in their metadata.
SAMPLER_VERSION = "cycle lengths, then one uniform permutation cut into blocks (v2)"

# How many remaining sizes a sampler keeps cumulative length laws for; each
# law is an O(m) array, so an unbounded cache grows to n^2/2 floats.
_CUM_CACHE_SIZE = 64
# and the bytes those laws may take, at 8 * (n_max + 1) bytes a law at most
_CUM_CACHE_BYTES = 64 << 20


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} stored as its canonical cycles.

    Each cycle starts at its smallest element and cycles are listed with
    increasing minima; the constructor takes them in that form, so equal
    permutations compare and hash equal.  The image,
    image[i-1] = sigma(i), is derived from the cycles on first use.
    """

    n: int
    cycles: tuple[tuple[int, ...], ...]

    @cached_property
    def image(self) -> tuple[int, ...]:
        """image[i-1] = sigma(i), filled in from the cycles."""
        image = [0] * self.n
        for c in self.cycles:
            for a, b in zip(c, c[1:] + c[:1]):
                image[a - 1] = b
        return tuple(image)


def cycle_length_distribution(
    ws: WeightSequence, table: NormalizationTable, m: int
) -> np.ndarray:
    """Exact law of the length of the cycle opened at remaining size m.

    Entry k-1 holds P(length = k) for k = 1..m.  ``table`` is
    ``norm_constants(ws, n_max)`` and carries log theta_k.  Raises
    :class:`DegenerateModelError` when h_m = 0 (no permutation of [m] has
    positive weight, so there is nothing to condition on).
    """
    if m < 1:
        raise ValueError(f"remaining size must be >= 1, got {m}")
    if m > table.n_max:
        raise ValueError(f"m={m} outside table range 0..{table.n_max}")
    log_h = table.log_h
    if log_h[m] == -np.inf:
        raise DegenerateModelError(f"h_{m} = 0: no positive-weight permutation of [{m}]")
    log_p = (
        table.log_theta[1:m + 1]
        + log_h[m - 1::-1]                 # log h_{m-k} for k = 1..m
        - (math.log(m) + log_h[m])
    )
    return np.exp(log_p)


class PermutationSampler:
    """Reusable sampler for one weight sequence.

    Keeps the cumulative length laws of the ``_CUM_CACHE_SIZE`` most recently
    used remaining sizes, and fewer when the table is so long that they could
    take more than ``_CUM_CACHE_BYTES``, so its memory stays bounded however
    many permutations it draws.
    """

    def __init__(self, ws: WeightSequence, table: NormalizationTable):
        self.ws = ws
        self.table = table
        maxsize = max(1, min(_CUM_CACHE_SIZE, _CUM_CACHE_BYTES // (8 * (table.n_max + 1))))
        self._cumulative = functools.lru_cache(maxsize=maxsize)(self._cumulative_law)

    def _cumulative_law(self, m: int) -> np.ndarray:
        return np.cumsum(cycle_length_distribution(self.ws, self.table, m))

    def sample(self, n: int, rng: RngStream) -> Permutation:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if n > self.table.n_max:
            raise ValueError(f"n={n} outside table range 0..{self.table.n_max}")
        gen = rng.gen
        starts = []
        m = n
        while m:
            cum = self._cumulative(m)
            u = gen.random() * cum[-1]
            k = int(cum.searchsorted(u, side="right")) + 1
            if k > m:                      # guard the u ~ cum[-1] rounding edge
                k = m
            starts.append(n - m)
            m -= k

        return Permutation(n, _cut((gen.permutation(n) + 1).tolist(), starts))


def _cut(arrangement: list[int], starts: list[int]) -> tuple[tuple[int, ...], ...]:
    """Canonical cycles of an arrangement of 1..n cut into blocks at ``starts``.

    Each block, from its start to the next one, read left to right is one
    cycle.
    """
    cycles = []
    for a, b in zip(starts, starts[1:] + [len(arrangement)]):
        block = arrangement[a:b]
        i = block.index(min(block))
        cycles.append(tuple(block[i:] + block[:i]))
    cycles.sort()                      # minima are distinct: orders by minimum
    return tuple(cycles)
