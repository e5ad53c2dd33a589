"""Deterministic random streams for reproducible (and parallel) experiments.

A stream keyed ``(seed, stream)`` is a Philox generator whose key is
``SeedSequence((seed, len(stream)) + stream).generate_state(2, np.uint64)``
at counter 0.  Philox is counter-based (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011), so a run of streams that differ only
in their last index needs no new generator per stream:
:meth:`RngStream.consecutive` re-keys one Philox in place, with keys from a
vectorized port of SeedSequence's hash, and every stream it yields draws
exactly what a freshly built one does.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["RngStream"]

_KEY_SLICE = 4096  # keys computed per vectorized pass in RngStream.consecutive
_INDEX_LIMIT = 1 << 32  # from here on SeedSequence splits an index into two words

# numpy's SeedSequence constants (pool of four uint32 words)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: little-endian uint32 words, at least one."""
    out = [value & _MASK32]
    value >>= 32
    while value:
        out.append(value & _MASK32)
        value >>= 32
    return out


def _philox_keys(prefix: list[int], last: np.ndarray) -> np.ndarray:
    """Philox keys, one (2,) uint64 row per entry of ``last``, of the entropy words prefix + [last].

    Row j equals ``SeedSequence(words).generate_state(2, np.uint64)`` for the
    words prefix + [last[j]] (each last[j] < 2**32): SeedSequence's uint32 hash
    mixing run on arrays.  The hash constants depend only on the position of a
    word, so they stay Python ints shared by every row; uint32 arrays wrap
    modulo 2**32 as the C code does.
    """
    words = [np.array([w], dtype=np.uint32) for w in prefix] + [last.astype(np.uint32)]
    words += [np.zeros(1, dtype=np.uint32)] * (_POOL_SIZE - len(words))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        r = x * _MIX_MULT_L - y * _MIX_MULT_R
        return r ^ (r >> 16)

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))

    const = _INIT_B
    state = []
    for value in pool:
        value = value ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        state.append(np.broadcast_to(value ^ (value >> 16), last.shape).astype(np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32), state[2] | state[3] << np.uint64(32)],
                    axis=1)


class RngStream:
    """A random stream fully determined by a seed and a stream index.

    Streams built from equal ``(seed, stream)`` pairs produce identical
    output on every platform; distinct indices give statistically
    independent streams, which is what makes replicate-per-stream
    parallelism deterministic regardless of worker count.  A stream must
    not be shared between concurrent consumers.
    """

    def __init__(self, seed: int, stream: int | tuple[int, ...] = 0):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.seed = int(seed)
        if isinstance(stream, (tuple, list)):
            self.stream = tuple(int(s) for s in stream)
        else:
            self.stream = (int(stream),)
        if any(s < 0 for s in self.stream):
            raise ValueError(f"stream indices must be >= 0, got {self.stream}")
        # the tuple length joins the key because SeedSequence absorbs
        # trailing zeros, which would alias a stream with its 0th substream
        key = np.random.SeedSequence((self.seed, len(self.stream)) + self.stream)
        self.gen = np.random.Generator(np.random.Philox(key))

    def consecutive(self, count: int) -> Iterator["RngStream"]:
        """This stream, then the ``count - 1`` streams after it in the last index.

        Yields this object ``count`` times, its Philox re-keyed in place each
        time (counter 0, no buffered output) and ``stream`` updated, so the
        j-th stream yielded draws exactly what ``RngStream(seed, stream[:-1] +
        (stream[-1] + j,))`` would.  Each yielded stream is valid only until
        the next one is taken.  Raises ``ValueError`` if the last index would
        reach 2**32.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        first = self.stream[-1]
        if first + count > _INDEX_LIMIT:
            raise ValueError(
                f"stream index {first + count - 1} reaches 2**32; consecutive streams end at 2**32 - 1"
            )
        return self._rekeyed(first, count)

    def _rekeyed(self, first: int, count: int) -> Iterator["RngStream"]:
        head = self.stream[:-1]
        prefix = _words(self.seed) + [len(self.stream)]
        for s in head:
            prefix += _words(s)
        bitgen = self.gen.bit_generator
        inner = {"counter": np.zeros(4, dtype=np.uint64), "key": None}
        state = {"bit_generator": "Philox", "state": inner, "buffer": np.zeros(4, dtype=np.uint64),
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for lo in range(first, first + count, _KEY_SLICE):
            hi = min(lo + _KEY_SLICE, first + count)
            keys = _philox_keys(prefix, np.arange(lo, hi, dtype=np.uint64))
            for index, key in zip(range(lo, hi), keys):
                inner["key"] = key
                bitgen.state = state
                self.stream = head + (index,)
                yield self

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"
