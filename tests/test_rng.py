"""Deterministic stream behaviour."""

import numpy as np
import pytest

from permcycles import RngStream


def test_equal_keys_give_equal_output():
    a = RngStream(17, 3).gen.random(64)
    b = RngStream(17, 3).gen.random(64)
    assert np.array_equal(a, b)


def test_distinct_keys_differ():
    base = RngStream(17, 3).gen.random(64)
    assert not np.array_equal(base, RngStream(17, 4).gen.random(64))
    assert not np.array_equal(base, RngStream(18, 3).gen.random(64))
    assert not np.array_equal(base, RngStream(17, (3, 0)).gen.random(64))


def test_tuple_stream_accepted():
    s = RngStream(0, (1, 2, 3))
    assert s.stream == (1, 2, 3)
    assert "stream=(1, 2, 3)" in repr(s)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(0, -2)
    with pytest.raises(ValueError):
        RngStream(0, (1, -1))


def test_philox_regression_values():
    # Philox is counter-based and documented as stable across platforms and
    # numpy releases; these literals guard against an accidental change of
    # bit generator or key construction.
    assert RngStream(0, 0).gen.random() == 0.6073659924129827
    assert RngStream(12345, (1, 2)).gen.random() == 0.9308908652599875


# ------------------------------------------------------ consecutive streams

_SEEDS = (0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**40 + 3, 10**30)
_HEADS = ((), (2,), (5, 2**32 + 1))  # stream tuples of length 1, 2 and 3


def _key(rng):
    return rng.gen.bit_generator.state["state"]["key"]


def test_consecutive_keys_equal_seed_sequence():
    for seed in _SEEDS:
        for head in _HEADS:
            for first, count in ((0, 50), (2**32 - 3, 3)):
                streams = RngStream(seed, head + (first,)).consecutive(count)
                for index, rng in zip(range(first, first + count), streams):
                    stream = head + (index,)
                    want = np.random.SeedSequence((seed, len(stream)) + stream)
                    assert rng.stream == stream
                    assert np.array_equal(_key(rng), want.generate_state(2, np.uint64))


def test_consecutive_draws_equal_fresh_streams_after_a_buffered_half_word():
    # a float32 draw leaves the upper half of a 64-bit output buffered in Philox;
    # the next stream must not start from it
    got = []
    for rng in RngStream(11, (0, 7)).consecutive(40):
        got.append((rng.gen.random(dtype=np.float32), rng.gen.random(3)))
    for j, (half, full) in enumerate(got):
        gen = RngStream(11, (0, 7 + j)).gen
        assert half == gen.random(dtype=np.float32)
        assert np.array_equal(full, gen.random(3))


def test_consecutive_restarts_a_used_stream():
    rng = RngStream(3, (1, 4))
    rng.gen.random(5)
    rng.gen.random(dtype=np.float32)
    assert next(rng.consecutive(1)).gen.random() == RngStream(3, (1, 4)).gen.random()


def test_consecutive_spans_several_key_slices():
    count = 2 * 4096 + 5
    got = [rng.gen.random() for rng in RngStream(8, (0, 4090)).consecutive(count)]
    assert got == [RngStream(8, (0, 4090 + j)).gen.random() for j in range(count)]


def test_consecutive_index_limit():
    last = RngStream(0, (0, 2**32 - 2)).consecutive(2)
    assert [rng.stream for rng in last] == [(0, 2**32 - 2), (0, 2**32 - 1)]
    with pytest.raises(ValueError):
        RngStream(0, (0, 2**32 - 2)).consecutive(3)
    with pytest.raises(ValueError):
        RngStream(0, 2**32).consecutive(1)
    with pytest.raises(ValueError):
        RngStream(0, 0).consecutive(-1)
    assert list(RngStream(0, 0).consecutive(0)) == []
