"""Cycle-weight sequences and their normalization constants.

A weight sequence assigns a non-negative weight ``theta_k`` to each cycle
length ``k >= 1``.  A permutation of ``[n]`` is drawn with probability
proportional to the product of ``theta_k`` over its cycles, and ``h_n``
denotes the constant that turns this into a probability measure, with
``h_0 = 1``.  The table of constants satisfies

    n * h_n = sum_{k=1}^{n} theta_k * h_{n-k},

which is evaluated here as a linear recurrence in floating point: the table
is kept in blocks, each with its own power-of-two scale, so that rapidly
growing or decaying weights stay representable.  A step is a few dot
products over recent terms; past the first steps the older terms arrive by
FFT products, which makes the table O(n log^2 n) and not O(n^2).  The table
is reported in log scale.  The recurrence itself is
gated against brute-force enumeration over small symmetric groups in the test
suite.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightSequence",
    "NormalizationTable",
    "tail_intensity_mass",
    "norm_constants",
    "parse_weights",
    "WeightSpecError",
    "DegenerateModelError",
]


class WeightSpecError(ValueError):
    """A weight specification string could not be parsed."""


class DegenerateModelError(ValueError):
    """Every permutation of the requested size carries zero weight."""


@dataclass(frozen=True)
class WeightSequence:
    """Cycle weights theta_k = values[k-1] for k <= len(values), then coeff * k**power.

    Every supported family has this form: ``uniform`` is coeff 1, ``ewens``
    coeff theta, ``polynomial`` (coeff, power), and an explicit list has its
    values with coeff the last value (``tail="const"``) or 0 (``"zero"``) and
    power 0.  ``spec`` is the grammar form the factory was given.  Instances
    are immutable and hashable so they can key caches.  Use the factory
    classmethods (or :func:`parse_weights`) rather than the raw constructor.
    """

    spec: str
    values: tuple[float, ...]
    coeff: float
    power: float

    @classmethod
    def uniform(cls) -> "WeightSequence":
        """theta_k = 1 for every k (the uniform measure on S_n)."""
        return cls("uniform", (), 1.0, 0.0)

    @classmethod
    def ewens(cls, theta: float) -> "WeightSequence":
        """theta_k = theta for every k; theta must be positive and finite."""
        theta = float(theta)
        if not 0 < theta < math.inf:
            raise ValueError(f"ewens parameter must be positive and finite, got {theta!r}")
        return cls(f"ewens:{theta!r}", (), theta, 0.0)

    @classmethod
    def polynomial(cls, coeff: float, power: float) -> "WeightSequence":
        """theta_k = coeff * k**power with coeff > 0; both must be finite."""
        coeff, power = float(coeff), float(power)
        if not 0 < coeff < math.inf:
            raise ValueError(f"polynomial coefficient must be positive and finite, got {coeff!r}")
        if not math.isfinite(power):
            raise ValueError(f"polynomial power must be finite, got {power!r}")
        return cls(f"poly:{coeff!r},{power!r}", (), coeff, power)

    @classmethod
    def explicit(cls, values, tail: str = "const") -> "WeightSequence":
        """First weights given outright; ``tail`` extends past the list.

        ``tail="const"`` repeats the last listed value for all larger k,
        ``tail="zero"`` forbids longer cycles entirely.
        """
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("explicit weight list must not be empty")
        bad = [v for v in vals if not 0 <= v < math.inf]
        if bad:
            raise ValueError(f"explicit weights must be finite and non-negative, got {bad[0]!r}")
        if tail not in ("const", "zero"):
            raise ValueError(f"unknown tail rule {tail!r}")
        body = ",".join(repr(v) for v in vals)
        return cls(f"list:{body};tail={tail}", vals, vals[-1] if tail == "const" else 0.0, 0.0)

    def theta(self, k: int) -> float:
        """The weight attached to cycle length ``k`` (k >= 1)."""
        if k != int(k) or k < 1:
            raise ValueError(f"cycle length must be a positive integer, got {k!r}")
        k = int(k)
        if k <= len(self.values):
            return self.values[k - 1]
        return self.coeff * float(k) ** self.power

    def log_theta_array(self, k_max: int) -> np.ndarray:
        """log(theta_k) for k = 0..k_max as an array; index 0 is unused (-inf)."""
        out = np.full(k_max + 1, -np.inf)
        if k_max < 1:
            return out
        m = min(len(self.values), k_max)
        with np.errstate(divide="ignore"):
            out[1:m + 1] = np.log(self.values[:m])
        if self.coeff > 0:
            ks = np.arange(m + 1, k_max + 1, dtype=float)
            out[m + 1:] = math.log(self.coeff) + self.power * np.log(ks)
        return out

    def spec_string(self) -> str:
        """Grammar form of this sequence; parse_weights round-trips it."""
        return self.spec


# B_2j / (2j)! for j = 1..12: the Euler-Maclaurin corrections of _hurwitz_zeta
_BERNOULLI_TERMS = tuple(
    b / math.factorial(2 * j)
    for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                           -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
                           -236364091 / 2730), start=1)
)


def _hurwitz_zeta(s: float, q: float) -> float:
    """Hurwitz zeta(s, q) = sum_{k >= 0} (q + k)**-s for s > 1 and q > 0.

    Euler-Maclaurin summation: the terms below w = q + N are summed directly,
    with N the least count that makes w >= max(s, 25); the rest is the
    integral w**(1 - s) / (s - 1), half the term at w and 12 Bernoulli
    corrections B_2j / (2j)! * s (s + 1) ... (s + 2j - 2) * w**(-s - 2j + 1).
    With w >= max(s, 25) the 13th correction is below 4e-17 of the sum.
    """
    if not (s > 1.0 and q > 0.0):
        raise ValueError(f"Hurwitz zeta needs s > 1 and q > 0, got s={s}, q={q}")
    n = max(0, math.ceil(max(s, 25.0) - q))
    head = math.fsum((q + k) ** -s for k in range(n))
    w = q + n
    rest = w ** (1.0 - s) / (s - 1.0) + 0.5 * w ** -s
    rising = s * w ** (-s - 1.0)  # s (s + 1) ... (s + 2j - 2) * w**(-s - 2j + 1)
    for j, coeff in enumerate(_BERNOULLI_TERMS, start=1):
        rest += coeff * rising
        rising *= (s + 2 * j - 1) * (s + 2 * j) / (w * w)
    return head + rest


def tail_intensity_mass(ws: WeightSequence, k_max: int) -> float:
    """Total limiting intensity past level k_max: sum_{k > k_max} theta_k / k.

    Infinite unless the tail coeff * k**power vanishes or decays.  A decaying
    tail (power < 0) is the Hurwitz zeta coeff * zeta(1 - power, K + 1), K past
    every listed value, by Euler-Maclaurin summation with 12 Bernoulli terms.
    Quantifies what a level-truncated simulation of the limit process ignores.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    listed = sum(v / k for k, v in enumerate(ws.values, start=1) if k > k_max)
    if ws.coeff == 0:
        return float(listed)
    if ws.power >= 0:
        return math.inf
    return float(listed + ws.coeff * _hurwitz_zeta(1.0 - ws.power, max(k_max, len(ws.values)) + 1))


def parse_weights(spec: str) -> WeightSequence:
    """Parse a weight specification string.

    Grammar: ``uniform`` | ``ewens:<theta>`` | ``poly:<c>,<gamma>`` |
    ``list:<v1>,...,<vm>[;tail=const|zero]``.  The values are checked by the
    factory of :class:`WeightSequence` the spec names.
    """
    text = spec.strip()
    head, colon, body = text.partition(":")
    head = head.lower()
    try:
        if text.lower() == "uniform":
            return WeightSequence.uniform()
        if colon and head == "ewens":
            return WeightSequence.ewens(body)
        if colon and head == "poly":
            parts = body.split(",")
            if len(parts) != 2:
                raise ValueError(f"poly spec {body!r} needs exactly two parameters")
            return WeightSequence.polynomial(*parts)
        if colon and head == "list":
            body, semi, option = body.partition(";")
            option = option.strip().lower()
            if semi and not option.startswith("tail="):
                raise ValueError(f"unknown list option {option!r}")
            items = body.split(",")
            if not any(s.strip() for s in items):
                raise ValueError("list spec has no values")
            return WeightSequence.explicit(items, tail=option[len("tail="):] if semi else "const")
    except ValueError as err:
        raise WeightSpecError(str(err)) from None
    raise WeightSpecError(f"unknown weight kind in {text!r}")


@dataclass(eq=False)
class NormalizationTable:
    """Log-scale tables of h_0 .. h_n_max and theta_0 .. theta_n_max for one weight sequence."""

    n_max: int
    log_h: np.ndarray
    log_theta: np.ndarray

    def h(self, n: int) -> float:
        """h_n as a plain float (may overflow to inf for huge weights)."""
        if n < 0 or n > self.n_max:
            raise ValueError(f"n={n} outside table range 0..{self.n_max}")
        return math.exp(self.log_h[n])


# Each block of h (and of theta) is stored as mantissas times 2**E, one integer
# E per block, with every nonzero mantissa within 2**(+-_SPAN_BITS) (about
# 1e+-150), so a product of two lies in 2**(+-2*_SPAN_BITS) and a dot product
# of _PIECE of them stays a normal, finite float.
_SPAN_BITS = 498
# below the 10 000-element cut-off under which OpenBLAS's x86_64 ddot runs in
# one thread; an internal of that kernel, not documented behaviour, so another
# BLAS may split or reorder a dot of this size (see
# tests/test_weights.py::test_norm_constants_do_not_depend_on_blas_threads)
_PIECE = 8192
# a block's terms are dropped when below 2**-_NEGLIGIBLE_BITS of the largest partial sum
_NEGLIGIBLE_BITS = 1100
# a range of at most _BASE steps runs one step at a time; a longer one is split in two
_BASE = 1024
# Percival (Math. Comp. 72, 2003, Thm 5.1): an FFT product of x and y of size 2**L
# in binary64, with roots of unity within eps/sqrt(2), eps = 2**-53, errs per entry by
# at most ||x||_2 ||y||_2 (11.83 L + 2.24) eps to first order, below 12 eps (L + 1).
# pocketfft is not his radix-2 transform, so this bounds it only in order of size.
_FFT_ERR = 12 * 2.0 ** -53
# an h_n whose products' bound exceeds this times max(1, |log h_n|) of it is redone by dots
_CERTIFIED = 0.5e-13


def _theta_blocks(log_theta: np.ndarray) -> tuple[np.ndarray, list[int], list[int]]:
    """theta_k as mantissas t_k, and the blocks of k (starts, exponents) they share.

    A block keeps the exponent it opened with until some positive theta_k
    leaves 2**(+-_SPAN_BITS) around it; weights within that range of 1 need
    one block with exponent 0, so t_k = theta_k.
    """
    log2_theta = log_theta / math.log(2.0)
    positive = np.isfinite(log2_theta)
    starts, exps = [1], [0]
    while True:
        k0 = starts[-1]
        gap = log2_theta[k0:] - exps[-1]
        leave = np.flatnonzero((np.abs(gap, out=gap) > _SPAN_BITS) & positive[k0:])
        if leave.size == 0:
            break
        k = k0 + int(leave[0])
        if k == k0:
            exps[-1] = round(float(log2_theta[k]))
        else:
            starts.append(k)
            exps.append(round(float(log2_theta[k])))
    # t_k = exp(log theta_k - E ln 2), built in place; index 0 (theta_0 = 0) has E = 0
    t = np.repeat(np.asarray([0] + exps, dtype=float), np.diff([0] + starts + [log_theta.size]))
    t *= -math.log(2.0)
    t += log_theta
    return np.exp(t, out=t), starts, exps



def norm_constants(ws: WeightSequence, n_max: int) -> NormalizationTable:
    """Build the table of normalization constants up to ``n_max``.

    Runs the defining recurrence in floating point, on values stored in
    blocks of consecutive indices, each block with its own power-of-two
    scale (see ``_SPAN_BITS``), so weights and constants of any size stay
    representable; rescaling by a power of two is exact.  Step n is one
    BLAS dot product per block (and per ``_PIECE`` elements) of the stored h_m
    against the reversed theta_{n-m}, over the m where theta_{n-m} can be
    positive, so a zero tail costs nothing.  The partial sums of different
    blocks meet through ``math.ldexp``: the open block first, then the
    closed ones by decreasing exponent, stopping at the first block whose
    every term is below 2**-_NEGLIGIBLE_BITS of the largest partial sum.
    A value that leaves its block's range opens a new block.  With theta in
    one block, past ``_BASE`` steps a step dots only recent m and gets the
    rest from FFT products (see ``solve``): O(n_max log^2 n_max), 0.08 s at
    n_max = 2e4 and 3 s at 1e6 on a 2-vCPU host, where one step at a time
    takes 0.2 s and, by its n_max^2 law, minutes.  The pieces add up in a
    fixed order and, with OpenBLAS, every dot runs in one thread, as
    pocketfft does, so the table does not depend on the BLAS thread count;
    that rests on OpenBLAS's ddot (see ``_PIECE``) and is checked by
    ``test_norm_constants_do_not_depend_on_blas_threads``.
    Zero weights contribute exact zeros, so models whose h_n vanish for
    some n (e.g. theta_1 = 0 at n = 1) record -inf there.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    log_theta = ws.log_theta_array(n_max)
    t, t_starts, t_exps = _theta_blocks(log_theta)
    positive = np.flatnonzero(t)
    if positive.size == 0:
        log_h = np.full(n_max + 1, -np.inf)
        log_h[0] = 0.0
        return NormalizationTable(n_max, log_h, log_theta)
    # theta_k > 0 only for k_first <= k <= k_last, so step n reads m in [n - k_last, n - k_first]
    k_first, k_last = int(positive[0]), int(positive[-1])
    t_top = math.floor(float(np.max(log_theta[positive])) / math.log(2.0)) + 2
    rev_t = t[::-1].copy()             # rev_t[n_max - n + m] = t_{n-m}
    t_cuts = t_starts[:0:-1]           # where theta blocks begin, from the largest k down
    g = np.zeros(n_max + 1)            # h_m = g[m] * 2**h_exps[block of m]
    g[0] = 1.0
    h_starts, h_exps = [0], [0]
    by_exp = []                        # closed blocks of h, largest exponent first
    lo_span, hi_span = 2.0 ** -_SPAN_BITS, 2.0 ** _SPAN_BITS
    # the terms of h_n from the m its step does not read: acc * 2**acc_e, within err * 2**acc_e
    acc, err = np.zeros(n_max + 1), np.zeros(n_max + 1)
    acc_e = np.full(n_max + 1, -(1 << 40), dtype=np.int64)
    one_block = t_exps == [0]          # else step by step: FFT operands would need theta's scales

    def step(n):
        """h_n by dots over every m."""
        lo, hi = max(0, n - k_last), n - k_first + 1
        b0, b1 = bisect.bisect_right(h_starts, lo) - 1, bisect.bisect_left(h_starts, hi)
        off = n_max - n
        # a term of block b is below 2**(h_exps[b] + reach - _NEGLIGIBLE_BITS) / n
        reach = _SPAN_BITS + t_top + n.bit_length() + _NEGLIGIBLE_BITS
        parts, top = [], -math.inf     # (exponent, sum) per segment; 2**top bounds the largest
        # the open block first, to bound the rest; a closed block out of reach is passed over
        for b in itertools.chain([len(h_starts) - 1], by_exp):
            if not b0 <= b < b1:
                continue
            if h_exps[b] + reach < top:
                break                  # and so are the blocks after it
            a = lo if lo > h_starts[b] else h_starts[b]
            c = h_starts[b + 1] if b + 1 < len(h_starts) and h_starts[b + 1] < hi else hi
            cuts = (a, c)
            if t_cuts:                 # cut where a block of theta begins (k = n - m falls as m rises)
                cuts = [a] + [n + 1 - k for k in t_cuts if a < n + 1 - k < c] + [c]
            for x, y in zip(cuts, cuts[1:]):
                total = 0.0
                for p in range(x, y, _PIECE):
                    q = p + _PIECE if p + _PIECE < y else y
                    total += g[p:q].dot(rev_t[off + p:off + q])
                if total:
                    exp = h_exps[b] + t_exps[bisect.bisect_right(t_starts, n - x) - 1]
                    parts.append((exp, float(total)))
                    top = max(top, exp + math.frexp(total)[1])
        if not parts:
            return                     # h_n = 0
        here = h_exps[-1]
        try:
            value = sum([math.ldexp(s, e - here) for e, s in parts]) / n
        except OverflowError:
            value = math.inf
        if lo_span <= value <= hi_span:
            g[n] = value
            return
        # h_n opens a new block, scaled by its own binary exponent
        mantissa, shift = math.frexp(sum(math.ldexp(s, e - top) for e, s in parts) / n)
        g[n] = mantissa
        bisect.insort(by_exp, len(h_starts) - 1, key=lambda i: -h_exps[i])
        h_starts.append(n)
        h_exps.append(top + shift)

    def convolve(l, mid, r):
        """Add h_m theta_{n-m} over m in [l, mid) to the accumulators of n in [mid, r)."""
        r = min(r, n_max + 1)
        a0 = max(l, mid - k_last)      # theta_k = 0 past k_last: fewer m, k and n
        k_end = min(k_last + 1, r - a0)
        stop = min(r, mid + k_end - 1)
        if stop <= mid or k_end <= k_first:
            return
        # entry n - a0 - 1 of a cyclic product of this size holds the terms of n alone
        size = 1 << (stop - a0 - 2).bit_length()
        exps = np.asarray(h_exps)[np.searchsorted(h_starts, np.arange(a0, mid), side="right") - 1]
        s = int(np.max(np.frexp(g[a0:mid])[1] + exps, where=g[a0:mid] > 0, initial=-(1 << 40)))
        x = np.ldexp(g[a0:mid], exps - s)  # h_m * 2**-s, largest in [1/2, 1); below 2**-1074 is 0
        y = t[1:k_end]                 # one theta block at exponent 0: within 2**+-_SPAN_BITS
        p = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)
        p = p[mid - a0 - 1:stop - a0 - 1]
        e = acc_e[mid:stop]
        top = np.maximum(e, s)
        acc[mid:stop] = np.ldexp(acc[mid:stop], e - top) + np.ldexp(p, s - top)
        bound = _FFT_ERR * size.bit_length() * math.sqrt(np.square(x).sum() * np.square(y).sum())
        err[mid:stop] = np.ldexp(err[mid:stop], e - top) + np.ldexp(bound, s - top)
        acc_e[mid:stop] = top

    def solve(l, r):
        """Fill h_n for n in [l, r), given the terms of every m < l in the accumulators.

        Past _BASE steps, an online convolution (van der Hoeven, J. Symbolic
        Comput. 2002): solve [l, mid), pass its terms to [mid, r) by one FFT
        product, solve [mid, r).  Else step n is the accumulated terms plus
        one dot over m >= l, the sum ``step`` makes without them, if those m
        are in the open block.  It stands if it stays in the block's range and
        its bound is certified; else ``step`` redoes it over every m.
        """
        if one_block and min(r, n_max + 1) - max(l, 1) > _BASE:
            mid = (l + r) // 2
            solve(l, mid)
            convolve(l, mid, r)
            solve(mid, r)
            return
        start, stop, blocks = max(l, 1), min(r, n_max + 1), 0
        for n in range(start, stop):
            lo = n - k_last if n - k_last > l else l
            if one_block and h_starts[-1] <= lo:
                if blocks < len(h_starts):  # the accumulators and bounds in the open block's scale
                    blocks, log_here = len(h_starts), h_exps[-1] * math.log(2.0)
                    with np.errstate(over="ignore"):
                        level, bound = np.ldexp([acc[start:stop], err[start:stop]],
                                                acc_e[start:stop] - h_exps[-1]).tolist()
                hi, off, i = n + 1 - k_first, n_max - n, n - start
                total = level[i]
                if lo < hi:
                    total += float(g[lo:hi].dot(rev_t[off + lo:off + hi]))
                if total == 0 and not err[n]:
                    continue           # h_n = 0: no terms, and no product reached it
                value = total / n
                if lo_span <= value <= hi_span and (bound[i] <= _CERTIFIED * total or bound[i] <= (
                        _CERTIFIED * total * abs(math.log(value) + log_here))):
                    g[n] = value
                    continue
            step(n)

    solve(0, _BASE << (n_max // _BASE).bit_length())
    log_h = np.repeat(np.asarray(h_exps, dtype=float), np.diff(h_starts + [n_max + 1]))
    log_h *= math.log(2.0)             # each block's scale, then its mantissas
    with np.errstate(divide="ignore"):
        log_h += np.log(g, out=g)
    return NormalizationTable(n_max, log_h, log_theta)
