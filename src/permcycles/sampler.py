"""Exact sampling of permutations under cycle weights.

A draw has two steps.  First the cycle lengths k_1, k_2, ... are drawn one
after another: with m elements not yet assigned to a cycle, the next length
follows the exact law of the length of the cycle through the smallest of
them,

    P(length = k | m unassigned) = theta_k * h_{m-k} / (m * h_m),

until m reaches 0.  Then one uniform permutation of 1..n is cut into
consecutive blocks of lengths k_1, k_2, ...; each block, read left to right,
is one cycle.

A :class:`Permutation` has two forms.  ``Permutation(n, cycles)`` holds its
canonical cycles (smallest element first, in increasing order of their
minima).  A sampled permutation holds the arrangement as drawn and the
block lengths, and builds its canonical cycles only when they are read.
Either way ``lengths`` is the multiset of cycle lengths, in draw order for a
sampled permutation, and ``cycles_of_length(k)`` gives the canonical
k-cycles; on a sampled permutation it rotates only the blocks of length k,
so readers of short cycles never canonicalize the whole arrangement.

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
import itertools
import math
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


class Permutation:
    """A permutation of {1..n}, read through its canonical cycles.

    Canonical cycles start at their smallest element and are listed with
    increasing minima.  A permutation has one of two forms:

    * ``Permutation(n, cycles)`` takes the canonical cycles themselves;
    * a sampled permutation holds the arrangement it was drawn as (0-based)
      and its block lengths, and builds ``cycles`` on first read.

    ``lengths`` is the multiset of cycle lengths: in draw order for a sampled
    permutation, by increasing minimum otherwise.  Equality and hashing follow
    ``(n, cycles)``, so equal permutations compare and hash equal whatever
    their form.  The image, image[i-1] = sigma(i), is derived from the cycles
    on first use.
    """

    def __init__(self, n: int, cycles: tuple[tuple[int, ...], ...]):
        self.n = n
        self.cycles = cycles
        self.lengths = tuple(map(len, cycles))
        self._arrangement = None

    @classmethod
    def _sampled(cls, arrangement: np.ndarray, lengths: tuple[int, ...]) -> "Permutation":
        perm = cls.__new__(cls)
        perm.n = len(arrangement)
        perm.lengths = lengths
        perm._arrangement = arrangement
        return perm

    @cached_property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """The canonical cycles, cut from the drawn arrangement on first read."""
        starts = [0, *itertools.accumulate(self.lengths[:-1])]
        return _cut((self._arrangement + 1).tolist(), starts)

    def cycles_of_length(self, k: int) -> tuple[tuple[int, ...], ...]:
        """The canonical k-cycles, by increasing minimum."""
        if self._arrangement is None:
            return tuple(c for c in self.cycles if len(c) == k)
        arrangement, out, a = self._arrangement, [], 0
        for m in self.lengths:
            if m == k:
                block = [v + 1 for v in arrangement[a:a + k].tolist()]
                i = block.index(min(block))
                out.append(tuple(block[i:] + block[:i]))
            a += m
        out.sort()                     # minima are distinct: orders by minimum
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.n == other.n and self.cycles == other.cycles

    def __hash__(self):
        return hash((self.n, self.cycles))

    def __repr__(self):
        return f"Permutation(n={self.n!r}, cycles={self.cycles!r})"

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
        lengths = []
        m = n
        while m:
            cum = self._cumulative(m)
            u = gen.random() * cum[-1]
            k = int(cum.searchsorted(u, side="right")) + 1
            if k > m:                      # guard the u ~ cum[-1] rounding edge
                k = m
            lengths.append(k)
            m -= k

        return Permutation._sampled(gen.permutation(n), tuple(lengths))


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
