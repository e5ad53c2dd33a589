"""Closed-form limiting laws for scaled cycle statistics.

As n grows, the k-cycle counts become independent Poisson(theta_k / k)
variables, and the scaled statistics of the cycle point measure converge to
laws of the limiting Poisson process.  This module evaluates those laws:
the Laplace transform of the scaled k-cycle sum, the CDF of the scaled
fixed-point sum, the range and extreme CDFs, and the spacing laws of the
limiting fixed-point configuration.  The fixed-point sum and the spacing
laws are Poisson(theta1) mixtures over the number of level-1 points; given
r points, the sum and the largest spacing are B-spline (Irwin-Hall)
quantities, evaluated by a recursion with non-negative weights, so their
values lie in [0, 1] without clamping.  The CDFs are reached through
:func:`limit_cdf`, which checks theta and applies each law's support and atom
at 0; :func:`law_atoms` reports the point masses so callers can treat them
separately from the continuous part.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .rng import RngStream

__all__ = [
    "poisson_count_pmf",
    "laplace_k_cycle_sum",
    "cdf_fixed_point_sum",
    "sample_limit_spacings",
    "limit_cdf",
    "law_atoms",
    "law_support",
    "LAW_NAMES",
]


def _check_theta(theta: float) -> None:
    """Reject a weight that is not finite and >= 0; NaN fails every comparison."""
    if not 0.0 <= theta < math.inf:
        raise ValueError(f"theta must be finite and >= 0, got {theta!r}")


def poisson_count_pmf(theta_k: float, k: int, j: int) -> float:
    """P(limiting number of k-cycles = j): Poisson with mean theta_k / k."""
    if j < 0 or j != int(j):
        raise ValueError(f"count must be a non-negative integer, got {j!r}")
    return _poisson_count_pmfs(theta_k, k, (j,))[0]


def _poisson_count_pmfs(theta_k: float, k: int, counts) -> list[float]:
    """``poisson_count_pmf`` at every count in ``counts``, checking theta_k and k once."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_theta(theta_k)
    mean = theta_k / k
    if mean == 0.0:
        return [1.0 if j == 0 else 0.0 for j in counts]
    log_mean = math.log(mean)
    return [math.exp(j * log_mean - mean - math.lgamma(j + 1)) for j in counts]


# ---------------------------------------------------------------------------
# Laplace transform of the scaled k-cycle sum
# ---------------------------------------------------------------------------

def laplace_k_cycle_sum(theta_k: float, k: int, t: float) -> float:
    """Laplace transform of the limiting scaled sum over k-cycles.

    The scaled sum of all elements on k-cycles converges to a compound
    Poisson law whose transform is

        exp( (theta_k / k) * ( ((1 - e^{-t}) / t)^k - 1 ) ),

    with value 1 at t = 0.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_theta(theta_k)
    if not t >= 0:  # NaN fails every comparison; t = inf leaves the atom e^{-theta_k / k}
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 1.0
    kernel = (-math.expm1(-t) / t) ** k - 1.0
    return math.exp(theta_k / k * kernel)


# ---------------------------------------------------------------------------
# Law formulas, each for 0 < x < the upper end of its support; spacing sampler
# ---------------------------------------------------------------------------

# Poisson mass the fixed-point mixtures may leave out
_POISSON_EPS = 1e-12


def _poisson_terms(theta1: float):
    """Yield (r, pmf) for Poisson(theta1) until the tail is below _POISSON_EPS; raise if r <= 500 can't."""
    pmf = math.exp(-theta1)
    cum = pmf
    r = 0
    yield r, pmf
    while 1.0 - cum > _POISSON_EPS and r < 500:
        r += 1
        pmf *= theta1 / r
        cum += pmf
        yield r, pmf
    if 1.0 - cum > _POISSON_EPS + r * 2.0 ** -53:  # beyond the sum's rounding
        raise ValueError(f"Poisson({theta1!r}) terms r <= 500 miss {1.0 - cum:.3g} of the mass")


def _fixed_point_sum(x: float, terms: list) -> float:
    """CDF of the limiting scaled sum of fixed points.

    The law is compound Poisson: a Poisson(theta1) number r of independent
    uniforms on [0, 1] summed together, so F(x) = sum_r pois(r) F_r(x) with
    F_r the Irwin-Hall CDF, an atom of mass e^{-theta1} at 0 and a
    continuous part elsewhere.  F_r comes from the Cox-de Boor recursion

        F_r(y) = (y F_{r-1}(y) + (r - y) F_{r-1}(y - 1)) / r,  F_0(y) = 1{y >= 0},

    run on one row y = x, x - 1, ... with y clipped to r, so both weights
    are non-negative and nothing cancels.  ``terms`` are the (r, pois(r))
    of ``_poisson_terms(theta1)``.
    """
    # F_r(x - j) needs F_{r-1} at j and j + 1, so F_R(x) needs j <= R; F_0 is 0 past j = x
    y = x - np.arange(int(min(x, terms[-1][0])) + 2)
    row = (y >= 0).astype(float)
    total = 0.0
    for r, pmf in terms:
        if r:
            yr = np.minimum(y[:-1], r)
            row[:-1] = (yr * row[:-1] + (r - yr) * row[1:]) / r
        total += pmf * float(row[0])
    return total


def _range_kernel(x: float, k: int) -> float:
    return k * x ** (k - 1) - (k - 1) * x ** k


def _min_range(x: float, theta_k: float, k: int) -> float:
    """CDF of the limiting scaled smallest k-cycle range, k >= 2.

    F(x) = 1 - exp(-(theta_k / k) (k x^{k-1} - (k-1) x^k)) on [0, 1), with
    an atom at 1 (no k-cycle at all) carrying the remaining mass
    exp(-theta_k / k).
    """
    return -math.expm1(-(theta_k / k) * _range_kernel(x, k))


def _max_range(x: float, theta_k: float, k: int) -> float:
    """CDF of the limiting scaled largest k-cycle range, k >= 2.

    F(x) = exp((theta_k / k) (k x^{k-1} - (k-1) x^k - 1)) on [0, 1); the
    value at 0 is the atom exp(-theta_k / k) (no k-cycle).
    """
    return math.exp((theta_k / k) * (_range_kernel(x, k) - 1.0))


def _min_fixed_point(x: float, theta1: float) -> float:
    """CDF of the limiting scaled smallest fixed point.

    1 - e^{-theta1 x} on [0, 1); the atom at 1 (mass e^{-theta1}) is the
    no-fixed-point case, where the convention places the statistic at 1.
    """
    return -math.expm1(-theta1 * x)


def _max_fixed_point(x: float, theta1: float) -> float:
    """CDF of the limiting scaled largest fixed point.

    e^{theta1 (x - 1)} on [0, 1), with the atom at 0 (mass e^{-theta1})
    being the no-fixed-point case.
    """
    return math.exp(theta1 * (x - 1.0))


def _min_spacing(x: float, terms: list) -> float:
    """CDF of the limiting smallest fixed-point spacing.

    Conditional on r fixed points, the smallest of the r + 1 uniform
    spacings exceeds x exactly when all gaps do, with probability
    (1 - (r+1)x)_+^r; mixing over r ~ Poisson(theta1) gives

        F(x) = 1 - sum_r pois(r) * max(0, 1 - (r+1)x)^r.

    The r = 0 case is the deterministic spacing 1, producing the atom at 1.
    """
    survival = 0.0
    for r, pmf in terms:
        base = 1.0 - (r + 1) * x
        if base > 0.0:
            survival += pmf * base ** r
    return 1.0 - survival


def _max_spacing(x: float, terms: list) -> float:
    """CDF of the limiting largest fixed-point spacing.

    Conditional on r fixed points the r + 1 uniform spacings all stay below
    x with probability r! x^r f_{r+1}(1/x), f_{r+1} the Irwin-Hall density
    of r + 1 uniforms.  Its Cox-de Boor recursion, scaled to
    h_r[j] = r! x^r f_{r+1}(1/x - j), reads

        h_r[j] = (1 - jx) h_{r-1}[j] + ((r + 1 + j)x - 1)_+ h_{r-1}[j + 1],

    with weights that are never negative where h_{r-1}[j] is not 0.  Mixing
    h_r[0] over r ~ Poisson(theta1) gives the law; r = 0 is the atom at 1.
    The row starts at r = 1, the triangle h_1[j] = (min(1 - jx, (j+2)x - 1))_+:
    the knots of the r = 0 indicator 1{0 <= 1/x - j < 1} fall on row indices
    when 1/x is whole, and rounding can then count one index too many.
    """
    j = np.arange(terms[-1][0] + 1)
    left = 1.0 - j * x
    row = np.maximum(0.0, np.minimum(left, (j + 2) * x - 1.0))
    total = 0.0
    for r, pmf in terms[1:]:
        if r > 1:
            right = np.maximum(0.0, (r + 1 + j[:-1]) * x - 1.0)
            row[:-1] = left[:-1] * row[:-1] + right * row[1:]
        total += pmf * float(row[0])
    return total


def sample_limit_spacings(theta1: float, rng: RngStream, size: int):
    """Draw ``size`` (min_spacing, max_spacing) pairs from the limiting law, as two arrays.

    A draw takes nu ~ Poisson(theta1) fixed points in the window and nu + 1
    independent exponentials X_1..X_{nu+1} with sum S: the smallest spacing
    is X_{nu+1} / ((nu + 1) S) and the largest sum_i X_i / (i S).  The atom
    at 1 (mass e^{-theta1}) is produced naturally by nu = 0 draws, where
    both spacings equal 1.
    """
    _check_theta(theta1)
    gen = rng.gen
    nu = gen.poisson(theta1, size=size)
    counts = nu + 1
    total = int(counts.sum())
    raw = gen.exponential(size=total)
    starts = np.zeros(size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    seg_sum = np.add.reduceat(raw, starts) if total else np.zeros(size)
    local_index = np.arange(total) - np.repeat(starts, counts) + 1
    weighted = np.add.reduceat(raw / local_index, starts) if total else np.zeros(size)
    ends = starts + counts - 1
    mins = raw[ends] / (counts * seg_sum)
    maxs = weighted / seg_sum
    return mins, maxs


# ---------------------------------------------------------------------------
# Law registry: named CDFs with explicit atoms
# ---------------------------------------------------------------------------


class _Law(NamedTuple):
    formula: Callable[..., float]  # F(x, theta), or F(x, theta, k) for a law that takes k
    takes_k: bool
    atom: float  # where the one atom sits; its mass is exp(-theta / k), k = 1 if none taken
    upper: float | None  # upper end of the support, whose lower end is 0; None: unbounded
    mixes: bool = False  # a Poisson(theta) mixture: F(x, terms), terms from _poisson_terms(theta)


_LAWS = {
    "S1": _Law(_fixed_point_sum, False, 0.0, None, mixes=True),
    "minrange": _Law(_min_range, True, 1.0, 1.0),
    "maxrange": _Law(_max_range, True, 0.0, 1.0),
    "m": _Law(_min_fixed_point, False, 1.0, 1.0),
    "M": _Law(_max_fixed_point, False, 0.0, 1.0),
    "delta": _Law(_min_spacing, False, 1.0, 1.0, mixes=True),
    "Delta": _Law(_max_spacing, False, 1.0, 1.0, mixes=True),
}
LAW_NAMES = tuple(_LAWS)


def _law(law: str) -> _Law:
    if law not in _LAWS:
        raise ValueError(f"unknown law {law!r}; known: {', '.join(LAW_NAMES)}")
    return _LAWS[law]


def _law_k(law: str, theta: float, k: int | None) -> int:
    """Check theta and k for the law; its cycle length k, or 1 for a law that takes none."""
    _check_theta(theta)
    if not _law(law).takes_k:
        if k is not None:
            raise ValueError(f"law {law!r} takes no cycle length k")
        return 1
    if k is None or k < 2:
        raise ValueError(f"law {law!r} needs an explicit cycle length k >= 2")
    return int(k)


def limit_cdf(law: str, theta: float, k: int | None = None) -> Callable[[float], float]:
    """The CDF of a named limiting law as a scalar callable.

    ``theta`` is the weight at the relevant cycle length: theta_k for the
    range laws, theta_1 for all the fixed-point laws; it must be finite and
    >= 0.  The callable is 0 below 0, the atom at 0 (if any) at 0, 1 from
    the upper end of the support on, and the law's formula in between.  A
    mixture law builds its Poisson terms here, so a theta they cannot cover
    raises before any x is asked for.
    """
    k = _law_k(law, theta, k)
    formula, takes_k, atom, upper, mixes = _LAWS[law]
    args = (list(_poisson_terms(theta)),) if mixes else (theta, k) if takes_k else (theta,)
    at_zero = math.exp(-theta / k) if atom == 0.0 else 0.0

    def cdf(x: float) -> float:
        if x < 0:
            return 0.0
        if x == 0:
            return at_zero
        if upper is not None and x >= upper:
            return 1.0
        return formula(x, *args)

    return cdf


def law_atoms(law: str, theta: float, k: int | None = None) -> dict[float, float]:
    """The point masses of a named limiting law, as {location: mass}."""
    k = _law_k(law, theta, k)
    return {_LAWS[law].atom: math.exp(-theta / k)}


def law_support(law: str) -> tuple[float, float | None]:
    """Support of a named law: (lower, upper); upper None means unbounded."""
    return (0.0, _law(law).upper)


def cdf_fixed_point_sum(x: float, theta1: float) -> float:
    """CDF at x of the limiting scaled sum of fixed points, ``limit_cdf("S1", theta1)(x)``."""
    return limit_cdf("S1", theta1)(x)
