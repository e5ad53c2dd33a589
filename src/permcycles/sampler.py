"""Exact sampling of permutations under cycle weights.

The sampler builds the permutation cycle by cycle.  At each step the
smallest element not yet placed opens a new cycle; the cycle's length is
drawn from the exact conditional law at the current remaining size,

    P(length = k | m unplaced) = theta_k * h_{m-k} / (m * h_m),

its companions are then drawn uniformly without replacement from the other
unplaced elements, and the order in which they come out fixes the cycle.
Sequential uniform draws make every arrangement of the companions equally
likely, so no extra shuffle is needed.  Exactness of the whole scheme is
gated against full enumeration in the test suite.
"""

from __future__ import annotations

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
    "cycles_of",
]


def _trace_cycles(image: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Canonical cycles of a 1-based image tuple.

    Each cycle starts at its smallest element and cycles are listed with
    increasing minima (scanning from the smallest unvisited element
    guarantees both at once).
    """
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


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} stored as its image tuple, image[i-1] = sigma(i)."""

    n: int
    image: tuple[int, ...]

    @classmethod
    def from_image(cls, image) -> "Permutation":
        img = tuple(int(v) for v in image)
        n = len(img)
        if sorted(img) != list(range(1, n + 1)):
            raise ValueError("image is not a bijection of 1..n")
        return cls(n, img)

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        image = [0] * (n + 1)
        for c in cycles:
            tup = tuple(int(v) for v in c)
            for a, b in zip(tup, tup[1:] + (tup[0],)):
                if not 1 <= a <= n or image[a]:
                    raise ValueError(f"cycles do not form a partition of 1..{n}")
                image[a] = b
        if 0 in image[1:]:
            raise ValueError(f"cycles do not form a partition of 1..{n}")
        return cls.from_image(image[1:])

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(n, tuple(range(1, n + 1)))

    @cached_property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition, smallest element first, cycles by increasing minimum."""
        return _trace_cycles(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]


def cycles_of(perm: Permutation) -> tuple[tuple[int, ...], ...]:
    """Recompute the canonical cycle decomposition from the image."""
    return _trace_cycles(perm.image)


def cycle_length_distribution(
    ws: WeightSequence, table: NormalizationTable, m: int
) -> np.ndarray:
    """Exact law of the length of the cycle opened at remaining size m.

    Entry k-1 holds P(length = k) for k = 1..m.  Raises
    :class:`DegenerateModelError` when h_m = 0 (no permutation of [m] has
    positive weight, so there is nothing to condition on).
    """
    if m < 1:
        raise ValueError(f"remaining size must be >= 1, got {m}")
    if m > table.n_max:
        raise ValueError(f"m={m} outside table range 0..{table.n_max}")
    log_h = table.log_h
    if np.isneginf(log_h[m]):
        raise DegenerateModelError(f"h_{m} = 0: no positive-weight permutation of [{m}]")
    ks = np.arange(1, m + 1)
    log_p = (
        ws.log_theta_array(m)[1:]
        + log_h[m - ks]
        - (math.log(m) + log_h[m])
    )
    return np.exp(log_p)


class PermutationSampler:
    """Reusable sampler for one weight sequence; caches per-size length tables."""

    def __init__(self, ws: WeightSequence, table: NormalizationTable):
        self.ws = ws
        self.table = table
        self._cum: dict[int, np.ndarray] = {}

    def _cumulative(self, m: int) -> np.ndarray:
        cum = self._cum.get(m)
        if cum is None:
            cum = np.cumsum(cycle_length_distribution(self.ws, self.table, m))
            self._cum[m] = cum
        return cum

    def sample(self, n: int, rng: RngStream) -> Permutation:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if n > self.table.n_max:
            raise ValueError(f"n={n} outside table range 0..{self.table.n_max}")
        gen = rng.gen
        image = [0] * (n + 1)
        pool = list(range(1, n + 1))       # unplaced elements, unordered
        pos = list(range(-1, n))           # pos[e] = index of e in pool
        cycles = []
        leader = 1
        m = n
        while m:
            while image[leader]:
                leader += 1
            cum = self._cumulative(m)
            u = gen.random() * cum[-1]
            k = int(np.searchsorted(cum, u, side="right")) + 1
            if k > m:                      # guard the u ~ cum[-1] rounding edge
                k = m

            i = pos[leader]                # remove the leader from the pool
            last = pool[-1]
            pool[i] = last
            pos[last] = i
            pool.pop()

            cyc = [leader]
            prev = leader
            if k > 1:
                for idx in gen.integers(0, np.arange(m - 1, m - k, -1)):
                    e = pool[idx]
                    last = pool[-1]
                    pool[idx] = last
                    pos[last] = idx
                    pool.pop()
                    image[prev] = e
                    cyc.append(e)
                    prev = e
            image[prev] = leader
            cycles.append(tuple(cyc))
            m -= k

        perm = Permutation(n, tuple(image[1:]))
        perm.__dict__["cycles"] = tuple(cycles)
        return perm

