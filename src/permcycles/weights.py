"""Cycle-weight sequences and their normalization constants.

A weight sequence assigns a non-negative weight ``theta_k`` to each cycle
length ``k >= 1``.  A permutation of ``[n]`` is drawn with probability
proportional to the product of ``theta_k`` over its cycles, and ``h_n``
denotes the constant that turns this into a probability measure, with
``h_0 = 1``.  The table of constants satisfies

    n * h_n = sum_{k=1}^{n} theta_k * h_{n-k},

which is evaluated here entirely in log scale so that rapidly growing or
decaying weights stay representable.  The recurrence itself is gated against
brute-force enumeration over small symmetric groups in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightSequence",
    "NormalizationTable",
    "norm_constants",
    "stability_diagnostic",
    "parse_weights",
    "WeightSpecError",
    "DegenerateModelError",
]


class WeightSpecError(ValueError):
    """A weight specification string could not be parsed."""


class DegenerateModelError(ValueError):
    """Every permutation of the requested size carries zero weight."""


_KINDS = ("uniform", "ewens", "polynomial", "explicit")
_TAILS = ("const", "zero")


@dataclass(frozen=True)
class WeightSequence:
    """One of the supported cycle-weight families.

    Instances are immutable and hashable so they can key caches.  Use the
    factory classmethods (or :func:`parse_weights`) rather than the raw
    constructor.
    """

    kind: str
    theta_param: float = 1.0
    coeff: float = 1.0
    power: float = 0.0
    values: tuple[float, ...] = ()
    tail: str = "const"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.tail not in _TAILS:
            raise ValueError(f"unknown tail rule {self.tail!r}")

    @classmethod
    def uniform(cls) -> "WeightSequence":
        """theta_k = 1 for every k (the uniform measure on S_n)."""
        return cls("uniform")

    @classmethod
    def ewens(cls, theta: float) -> "WeightSequence":
        """theta_k = theta for every k; theta must be positive."""
        if not theta > 0:
            raise ValueError(f"ewens parameter must be positive, got {theta!r}")
        return cls("ewens", theta_param=float(theta))

    @classmethod
    def polynomial(cls, coeff: float, power: float) -> "WeightSequence":
        """theta_k = coeff * k**power with coeff > 0."""
        if not coeff > 0:
            raise ValueError(f"polynomial coefficient must be positive, got {coeff!r}")
        return cls("polynomial", coeff=float(coeff), power=float(power))

    @classmethod
    def explicit(cls, values, tail: str = "const") -> "WeightSequence":
        """First weights given outright; ``tail`` extends past the list.

        ``tail="const"`` repeats the last listed value for all larger k,
        ``tail="zero"`` forbids longer cycles entirely.
        """
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("explicit weight list must not be empty")
        if any(v < 0 for v in vals):
            raise ValueError("explicit weights must be non-negative")
        if tail not in _TAILS:
            raise ValueError(f"unknown tail rule {tail!r}")
        return cls("explicit", values=vals, tail=tail)

    def theta(self, k: int) -> float:
        """The weight attached to cycle length ``k`` (k >= 1)."""
        if k != int(k) or k < 1:
            raise ValueError(f"cycle length must be a positive integer, got {k!r}")
        k = int(k)
        if self.kind == "uniform":
            return 1.0
        if self.kind == "ewens":
            return self.theta_param
        if self.kind == "polynomial":
            return self.coeff * float(k) ** self.power
        if k <= len(self.values):
            return self.values[k - 1]
        return self.values[-1] if self.tail == "const" else 0.0

    def log_theta_array(self, k_max: int) -> np.ndarray:
        """log(theta_k) for k = 0..k_max as an array; index 0 is unused (-inf)."""
        out = np.full(k_max + 1, -np.inf)
        if k_max < 1:
            return out
        ks = np.arange(1, k_max + 1, dtype=float)
        with np.errstate(divide="ignore"):
            if self.kind == "uniform":
                out[1:] = 0.0
            elif self.kind == "ewens":
                out[1:] = math.log(self.theta_param)
            elif self.kind == "polynomial":
                out[1:] = math.log(self.coeff) + self.power * np.log(ks)
            else:
                vals = list(self.values[:k_max])
                fill = self.values[-1] if self.tail == "const" else 0.0
                vals += [fill] * (k_max - len(vals))
                out[1:] = np.log(np.asarray(vals))
        return out

    def spec_string(self) -> str:
        """Grammar form of this sequence; parse_weights round-trips it."""
        if self.kind == "uniform":
            return "uniform"
        if self.kind == "ewens":
            return f"ewens:{self.theta_param!r}"
        if self.kind == "polynomial":
            return f"poly:{self.coeff!r},{self.power!r}"
        body = ",".join(repr(v) for v in self.values)
        return f"list:{body};tail={self.tail}"


def parse_weights(spec: str) -> WeightSequence:
    """Parse a weight specification string.

    Grammar: ``uniform`` | ``ewens:<theta>`` | ``poly:<c>,<gamma>`` |
    ``list:<v1>,...,<vm>[;tail=const|zero]``.
    """
    text = spec.strip()
    low = text.lower()
    if low == "uniform":
        return WeightSequence.uniform()
    if low.startswith("ewens:"):
        body = text[len("ewens:"):]
        try:
            theta = float(body)
        except ValueError:
            raise WeightSpecError(f"ewens parameter {body!r} is not a number") from None
        if not theta > 0:
            raise WeightSpecError(f"ewens parameter must be positive, got {body!r}")
        return WeightSequence.ewens(theta)
    if low.startswith("poly:"):
        body = text[len("poly:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise WeightSpecError(f"poly spec {body!r} needs exactly two parameters")
        try:
            coeff, power = float(parts[0]), float(parts[1])
        except ValueError:
            raise WeightSpecError(f"poly parameters {body!r} are not numbers") from None
        if not coeff > 0:
            raise WeightSpecError(f"poly coefficient must be positive, got {parts[0]!r}")
        return WeightSequence.polynomial(coeff, power)
    if low.startswith("list:"):
        body = text[len("list:"):]
        tail = "const"
        if ";" in body:
            body, _, tail_part = body.partition(";")
            tail_part = tail_part.strip().lower()
            if not tail_part.startswith("tail="):
                raise WeightSpecError(f"unknown list option {tail_part!r}")
            tail = tail_part[len("tail="):]
            if tail not in _TAILS:
                raise WeightSpecError(f"unknown tail rule {tail!r}")
        items = [s.strip() for s in body.split(",")]
        if not any(items):
            raise WeightSpecError("list spec has no values")
        try:
            vals = [float(s) for s in items]
        except ValueError:
            bad = next(s for s in items if not _is_float(s))
            raise WeightSpecError(f"list value {bad!r} is not a number") from None
        if any(v < 0 for v in vals):
            bad = next(v for v in vals if v < 0)
            raise WeightSpecError(f"list value {bad!r} is negative")
        return WeightSequence.explicit(vals, tail=tail)
    raise WeightSpecError(f"unknown weight kind in {text!r}")


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


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


def norm_constants(ws: WeightSequence, n_max: int) -> NormalizationTable:
    """Build the table of normalization constants up to ``n_max``.

    Runs the defining recurrence in log scale with a max-shift log-sum-exp
    over one preallocated buffer.  The cost is O(n_max^2) in vectorized
    steps, about 0.7 s at n_max = 2e4 on a 2-vCPU host.  Zero weights enter
    as -inf and drop out of the sum, so models whose h_n vanish for some n
    (e.g. theta_1 = 0 at n = 1) record -inf there.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    log_theta = ws.log_theta_array(n_max)
    log_h = np.full(n_max + 1, -np.inf)
    log_h[0] = 0.0
    buf = np.empty(n_max)
    for n in range(1, n_max + 1):
        terms = buf[:n]
        np.add(log_theta[1:n + 1], log_h[n - 1::-1], out=terms)
        top = terms.max()
        if top == -np.inf:
            continue
        terms -= top
        np.exp(terms, out=terms)
        log_h[n] = top + math.log(terms.sum()) - math.log(n)
    return NormalizationTable(n_max, log_h, log_theta)


def stability_diagnostic(table: NormalizationTable) -> np.ndarray:
    """Ratios h_{n-1} / h_n for n = 1..n_max.

    For well-behaved weight sequences the ratios approach a limit; wild
    swings indicate a numerically delicate model.  Raises
    :class:`DegenerateModelError` when some h_n in the table is zero, since
    the ratio past that point is meaningless.
    """
    if table.n_max < 1:
        raise ValueError("table must cover n >= 1")
    log_h = table.log_h
    if np.isneginf(log_h[1:]).any():
        n_bad = int(np.nonzero(np.isneginf(log_h[1:]))[0][0]) + 1
        raise DegenerateModelError(
            f"h_{n_bad} = 0: the weight sequence puts no mass on permutations of {n_bad}"
        )
    return np.exp(log_h[:-1] - log_h[1:])
