"""Closed-form limiting laws for scaled cycle statistics.

As n grows, the k-cycle counts become independent Poisson(theta_k / k)
variables, and the scaled statistics of the cycle point measure converge to
laws of the limiting Poisson process.  This module evaluates those laws:
Laplace transforms of additive statistics, the series CDF of the scaled
fixed-point sum, the range and extreme CDFs, and the spacing laws of the
limiting fixed-point configuration.  Every CDF with a point mass reports it
through :func:`law_atoms` so callers can treat atoms separately from the
continuous part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .rng import RngStream
from .weights import WeightSequence

__all__ = [
    "poisson_count_pmf",
    "laplace_additive",
    "laplace_k_cycle_sum",
    "bessel_i",
    "log_bessel_i",
    "BesselOverflowError",
    "cdf_fixed_point_sum",
    "cdf_min_range",
    "cdf_max_range",
    "cdf_min_fixed_point",
    "cdf_max_fixed_point",
    "MixtureSample",
    "sample_spacing_mixture",
    "sample_limit_spacings",
    "cdf_min_spacing",
    "cdf_max_spacing",
    "limit_cdf",
    "law_atoms",
    "law_support",
    "LAW_NAMES",
]


def poisson_count_pmf(theta_k: float, k: int, j: int) -> float:
    """P(limiting number of k-cycles = j): Poisson with mean theta_k / k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if j < 0 or j != int(j):
        raise ValueError(f"count must be a non-negative integer, got {j!r}")
    if theta_k < 0:
        raise ValueError(f"theta_k must be >= 0, got {theta_k}")
    mean = theta_k / k
    if mean == 0.0:
        return 1.0 if j == 0 else 0.0
    return math.exp(j * math.log(mean) - mean - math.lgamma(j + 1))


# ---------------------------------------------------------------------------
# Laplace transforms of additive statistics
# ---------------------------------------------------------------------------

_DEFAULT_BASE = {1: 2048, 2: 256, 3: 64, 4: 32}
_CHUNK = 1 << 16


def _base_points(m: int, overrides: Mapping[int, int] | None) -> int:
    if overrides and m in overrides:
        return int(overrides[m])
    return _DEFAULT_BASE.get(m, max(6, int(round(2.0 ** (16.0 / m)))))


def _cube_integral(f, m: int, t: float, npts: int, symmetric: bool) -> float:
    """Midpoint-rule integral of (1 - exp(-t f)) over the level-m wedge.

    For symmetric f the wedge integral is 1/m of the cube integral; the
    general path keeps only grid points whose first coordinate is minimal.
    Evaluation is chunked so the full product grid never materializes.
    """
    grid = (np.arange(npts) + 0.5) / npts
    total_pts = npts ** m
    weight = 1.0 / total_pts
    acc = 0.0
    for start in range(0, total_pts, _CHUNK):
        stop = min(start + _CHUNK, total_pts)
        idx = np.arange(start, stop, dtype=np.int64)
        pts = np.empty((stop - start, m))
        rem = idx
        for axis in range(m - 1, -1, -1):
            rem, coord = np.divmod(rem, npts)
            pts[:, axis] = grid[coord]
        vals = np.asarray(f(pts), dtype=float)
        contrib = -np.expm1(-t * vals)
        if not symmetric:
            mask = pts[:, 0] <= pts.min(axis=1)
            contrib = contrib * mask
        acc += float(np.sum(contrib)) * weight
    if symmetric:
        acc /= m
    return acc


def laplace_additive(
    ws: WeightSequence,
    functions: Mapping[int, Callable[[np.ndarray], np.ndarray]],
    t: float,
    *,
    symmetric: bool = True,
    base_points: Mapping[int, int] | None = None,
) -> float:
    """Laplace transform at t of the limiting additive statistic.

    ``functions`` maps a level m to a vectorized callable taking an (N, m)
    array of points and returning N non-negative values f_m.  The transform
    of sum_m sum_{points x at level m} f_m(x) under the limiting process is

        exp( - sum_m theta_m * I_m ),
        I_m = integral over the level-m wedge of (1 - exp(-t f_m(x))) dx.

    Each I_m is evaluated by a tensor midpoint rule with one Richardson
    extrapolation step (coarse and doubled grids combined as
    (4 I_fine - I_coarse) / 3).  ``symmetric=True`` asserts that every f_m
    is invariant under coordinate permutations, in which case the wedge
    integral is exactly 1/m of the cube integral; the non-symmetric path
    restricts the cube grid to the wedge instead and converges more slowly.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0:
        return 1.0
    exponent = 0.0
    for m in sorted(functions):
        theta = ws.theta(m)
        if theta == 0.0:
            continue
        f = functions[m]
        base = _base_points(m, base_points)
        coarse = _cube_integral(f, m, t, base, symmetric)
        fine = _cube_integral(f, m, t, 2 * base, symmetric)
        exponent += theta * ((4.0 * fine - coarse) / 3.0)
    return math.exp(-exponent)


def laplace_k_cycle_sum(theta_k: float, k: int, t: float) -> float:
    """Laplace transform of the limiting scaled sum over k-cycles.

    The scaled sum of all elements on k-cycles converges to a compound
    Poisson law whose transform is

        exp( (theta_k / k) * ( ((1 - e^{-t}) / t)^k - 1 ) ),

    with value 1 at t = 0.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if theta_k < 0:
        raise ValueError(f"theta_k must be >= 0, got {theta_k}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return 1.0
    kernel = (-math.expm1(-t) / t) ** k - 1.0
    return math.exp(theta_k / k * kernel)


# ---------------------------------------------------------------------------
# Modified Bessel functions of integer order (series evaluation)
# ---------------------------------------------------------------------------


class BesselOverflowError(OverflowError):
    """I_j(x) exceeds the float range; carries the log-scale value instead."""

    def __init__(self, j: int, x: float, log_value: float):
        super().__init__(
            f"I_{j}({x!r}) overflows float64; log value {log_value!r} "
            f"is available via log_bessel_i"
        )
        self.log_value = log_value


def bessel_i(j: int, x: float, eps: float = 1e-14) -> float:
    """Modified Bessel function I_j(x) by its ascending series.

    The series sum_m (x/2)^{2m+j} / (m! (m+j)!) has positive terms, so
    truncating once a term drops below eps times the running sum keeps the
    relative error within a small multiple of eps.  Raises
    :class:`BesselOverflowError` (carrying the log-scale value) when the
    result cannot be represented.
    """
    if j < 0 or j != int(j):
        raise ValueError(f"order must be a non-negative integer, got {j!r}")
    if x < 0:
        raise ValueError(f"argument must be >= 0, got {x}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if x == 0.0:
        return 1.0 if j == 0 else 0.0
    half = x / 2.0
    log_term = j * math.log(half) - math.lgamma(j + 1)
    if log_term > 700.0:
        raise BesselOverflowError(j, x, log_bessel_i(j, x, eps))
    term = math.exp(log_term)
    total = term
    m = 1
    while True:
        term *= half * half / (m * (m + j))
        total += term
        if math.isinf(total):
            raise BesselOverflowError(j, x, log_bessel_i(j, x, eps))
        if term < eps * total:
            return total
        m += 1


def log_bessel_i(j: int, x: float, eps: float = 1e-14) -> float:
    """log I_j(x), evaluated entirely in log scale (no overflow)."""
    if j < 0 or j != int(j):
        raise ValueError(f"order must be a non-negative integer, got {j!r}")
    if x < 0:
        raise ValueError(f"argument must be >= 0, got {x}")
    if x == 0.0:
        return 0.0 if j == 0 else -math.inf
    log_half = math.log(x / 2.0)
    log_term = j * log_half - math.lgamma(j + 1)
    log_total = log_term
    m = 1
    while True:
        log_term += 2.0 * log_half - math.log(m) - math.log(m + j)
        log_total = np.logaddexp(log_total, log_term)
        # terms rise then fall; stop only on the falling side
        if log_term < log_total + math.log(eps) and m > x / 2.0:
            return float(log_total)
        m += 1


def cdf_fixed_point_sum(x: float, theta1: float, eps: float = 1e-14) -> float:
    """CDF of the limiting scaled sum of fixed points.

    The law is compound Poisson: a Poisson(theta1) number of independent
    uniforms on [0,1] summed together, giving the series

        F(x) = e^{-theta1} * sum_{j=0}^{floor(x)}
               ((-1)^j / j!) * (theta1 (x - j))^{j/2} * I_j(2 sqrt(theta1 (x - j))),

    with an atom of mass e^{-theta1} at 0 and a continuous part elsewhere.
    """
    if theta1 < 0:
        raise ValueError(f"theta1 must be >= 0, got {theta1}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if x < 0:
        return 0.0
    if theta1 == 0.0:
        return 1.0
    total = 0.0
    for j in range(int(math.floor(x)) + 1):
        a = theta1 * (x - j)
        if a == 0.0:
            term = 1.0 if j == 0 else 0.0
        else:
            term = a ** (j / 2.0) * bessel_i(j, 2.0 * math.sqrt(a), eps)
        if j % 2:
            term = -term
        total += term / math.factorial(j)
    value = math.exp(-theta1) * total
    return min(1.0, max(0.0, value))


# ---------------------------------------------------------------------------
# Range and extreme-position laws
# ---------------------------------------------------------------------------


def _range_kernel(x: float, k: int) -> float:
    return k * x ** (k - 1) - (k - 1) * x ** k


def cdf_min_range(x: float, theta_k: float, k: int) -> float:
    """CDF of the limiting scaled smallest k-cycle range, k >= 2.

    F(x) = 1 - exp(-(theta_k / k) (k x^{k-1} - (k-1) x^k)) on [0, 1), with
    an atom at 1 (no k-cycle at all) carrying the remaining mass
    exp(-theta_k / k).
    """
    if k < 2:
        raise ValueError(f"range laws need k >= 2, got {k}")
    if theta_k < 0:
        raise ValueError(f"theta_k must be >= 0, got {theta_k}")
    if x < 0:
        return 0.0
    if x >= 1:
        return 1.0
    return -math.expm1(-(theta_k / k) * _range_kernel(x, k))


def cdf_max_range(x: float, theta_k: float, k: int) -> float:
    """CDF of the limiting scaled largest k-cycle range, k >= 2.

    F(x) = exp((theta_k / k) (k x^{k-1} - (k-1) x^k - 1)) on [0, 1); the
    value at 0 is the atom exp(-theta_k / k) (no k-cycle), and F = 1 from
    x = 1 on.
    """
    if k < 2:
        raise ValueError(f"range laws need k >= 2, got {k}")
    if theta_k < 0:
        raise ValueError(f"theta_k must be >= 0, got {theta_k}")
    if x < 0:
        return 0.0
    if x >= 1:
        return 1.0
    return math.exp((theta_k / k) * (_range_kernel(x, k) - 1.0))


def cdf_min_fixed_point(x: float, theta1: float) -> float:
    """CDF of the limiting scaled smallest fixed point.

    1 - e^{-theta1 x} on [0, 1); the atom at 1 (mass e^{-theta1}) is the
    no-fixed-point case, where the convention places the statistic at 1.
    """
    if theta1 < 0:
        raise ValueError(f"theta1 must be >= 0, got {theta1}")
    if x < 0:
        return 0.0
    if x >= 1:
        return 1.0
    return -math.expm1(-theta1 * x)


def cdf_max_fixed_point(x: float, theta1: float) -> float:
    """CDF of the limiting scaled largest fixed point.

    e^{theta1 (x - 1)} on [0, 1), with the atom at 0 (mass e^{-theta1})
    being the no-fixed-point case; F = 1 from x = 1 on.
    """
    if theta1 < 0:
        raise ValueError(f"theta1 must be >= 0, got {theta1}")
    if x < 0:
        return 0.0
    if x >= 1:
        return 1.0
    return math.exp(theta1 * (x - 1.0))


# ---------------------------------------------------------------------------
# Spacing laws of the limiting fixed-point configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixtureSample:
    """One draw of the limiting spacing construction.

    ``nu`` fixed points fall in the window; ``gaps_raw`` holds nu + 1
    independent exponential variables whose normalized values are the
    spacings.  With S their sum, the smallest spacing is distributed like
    X_{nu+1} / ((nu + 1) S) and the largest like sum_i X_i / (i S).
    """

    nu: int
    gaps_raw: tuple[float, ...]

    def min_spacing(self) -> float:
        s = math.fsum(self.gaps_raw)
        return self.gaps_raw[-1] / ((self.nu + 1) * s)

    def max_spacing(self) -> float:
        s = math.fsum(self.gaps_raw)
        return math.fsum(x / i for i, x in enumerate(self.gaps_raw, start=1)) / s


def sample_spacing_mixture(theta1: float, rng: RngStream) -> MixtureSample:
    """Draw the (nu, exponentials) pair behind both limiting spacing laws."""
    if theta1 < 0:
        raise ValueError(f"theta1 must be >= 0, got {theta1}")
    nu = int(rng.gen.poisson(theta1))
    gaps = tuple(float(g) for g in rng.gen.exponential(size=nu + 1))
    return MixtureSample(nu, gaps)


def sample_limit_spacings(theta1: float, rng: RngStream, size: int | None = None):
    """Draw (min_spacing, max_spacing) pairs from the limiting law.

    Returns a pair of floats, or a pair of arrays when ``size`` is given.
    The atom at 1 (mass e^{-theta1}) is produced naturally by nu = 0 draws,
    where both spacings equal 1.
    """
    if theta1 < 0:
        raise ValueError(f"theta1 must be >= 0, got {theta1}")
    if size is None:
        ms = sample_spacing_mixture(theta1, rng)
        return ms.min_spacing(), ms.max_spacing()
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


def _poisson_terms(theta1: float, eps: float):
    """Yield (r, pmf) for Poisson(theta1) until the tail is below eps; raise if r <= 500 can't."""
    pmf = math.exp(-theta1)
    cum = pmf
    r = 0
    yield r, pmf
    while 1.0 - cum > eps and r < 500:
        r += 1
        pmf *= theta1 / r
        cum += pmf
        yield r, pmf
    if 1.0 - cum > eps + r * 2.0 ** -53:  # beyond the sum's rounding: eps = 0 is allowed
        raise ValueError(f"Poisson({theta1!r}) terms r <= 500 miss {1.0 - cum:.3g} of the mass")


def cdf_min_spacing(x: float, theta1: float, eps: float = 1e-12) -> float:
    """CDF of the limiting smallest fixed-point spacing.

    Conditional on r fixed points, the smallest of the r + 1 uniform
    spacings exceeds x exactly when all gaps do, with probability
    (1 - (r+1)x)_+^r; mixing over r ~ Poisson(theta1) gives

        F(x) = 1 - sum_r pois(r) * max(0, 1 - (r+1)x)^r.

    The r = 0 case is the deterministic spacing 1, producing the atom at 1.
    """
    if theta1 < 0:
        raise ValueError(f"theta1 must be >= 0, got {theta1}")
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    survival = 0.0
    for r, pmf in _poisson_terms(theta1, eps):
        base = 1.0 - (r + 1) * x
        if base > 0.0:
            survival += pmf * base ** r
        elif r == 0:
            survival += pmf
    return min(1.0, max(0.0, 1.0 - survival))


def cdf_max_spacing(x: float, theta1: float, eps: float = 1e-12) -> float:
    """CDF of the limiting largest fixed-point spacing.

    Conditional on r fixed points the largest of the r + 1 uniform spacings
    has CDF sum_{j} (-1)^j C(r+1, j) (1 - jx)_+^r, and mixing over
    r ~ Poisson(theta1) gives the unconditional law.  The r = 0 term is the
    atom at 1 again.

    The inner sum alternates and cancels for r in the tens, so its rounding
    error is bounded by sum_r pois(r) sum_j |term_j| (r + 2) 2^-53; raises
    ``ValueError`` when that bound exceeds 1e-9, or when the result leaves
    [0, 1] by more than it.  A result off [0, 1] by less is rounding and is
    returned as the nearest end.
    """
    if theta1 < 0:
        raise ValueError(f"theta1 must be >= 0, got {theta1}")
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    total = 0.0
    err = 0.0
    for r, pmf in _poisson_terms(theta1, eps):
        inner = 0.0
        size = 0.0
        for j in range(r + 2):
            base = 1.0 - j * x
            if base <= 0.0:
                break
            term = math.comb(r + 1, j) * base ** r
            inner += -term if j % 2 else term
            size += term
        total += pmf * inner
        err += pmf * size * (r + 2)
    err *= 2.0 ** -53
    if err > 1e-9 or not -err <= total <= 1.0 + err:
        raise ValueError(
            f"cdf_max_spacing({x!r}, {theta1!r}) = {total!r} with rounding error up to "
            f"{err:.3g}: the alternating sum cancels too much at this theta1"
        )
    return min(1.0, max(0.0, total))


# ---------------------------------------------------------------------------
# Law registry: named CDFs with explicit atoms
# ---------------------------------------------------------------------------

LAW_NAMES = ("S1", "minrange", "maxrange", "m", "M", "delta", "Delta")


def _need_k(law: str, k: int | None) -> int:
    if k is None or k < 2:
        raise ValueError(f"law {law!r} needs an explicit cycle length k >= 2")
    return int(k)


def limit_cdf(law: str, theta: float, k: int | None = None) -> Callable[[float], float]:
    """The CDF of a named limiting law as a scalar callable.

    ``theta`` is the weight at the relevant cycle length: theta_k for the
    range laws, theta_1 for all the fixed-point laws.
    """
    if law == "S1":
        return lambda x: cdf_fixed_point_sum(x, theta)
    if law == "minrange":
        kk = _need_k(law, k)
        return lambda x: cdf_min_range(x, theta, kk)
    if law == "maxrange":
        kk = _need_k(law, k)
        return lambda x: cdf_max_range(x, theta, kk)
    if law == "m":
        return lambda x: cdf_min_fixed_point(x, theta)
    if law == "M":
        return lambda x: cdf_max_fixed_point(x, theta)
    if law == "delta":
        return lambda x: cdf_min_spacing(x, theta)
    if law == "Delta":
        return lambda x: cdf_max_spacing(x, theta)
    raise ValueError(f"unknown law {law!r}; known: {', '.join(LAW_NAMES)}")


def law_atoms(law: str, theta: float, k: int | None = None) -> dict[float, float]:
    """The point masses of a named limiting law, as {location: mass}."""
    if law == "S1":
        return {0.0: math.exp(-theta)}
    if law == "minrange":
        kk = _need_k(law, k)
        return {1.0: math.exp(-theta / kk)}
    if law == "maxrange":
        kk = _need_k(law, k)
        return {0.0: math.exp(-theta / kk)}
    if law == "m":
        return {1.0: math.exp(-theta)}
    if law == "M":
        return {0.0: math.exp(-theta)}
    if law in ("delta", "Delta"):
        return {1.0: math.exp(-theta)}
    raise ValueError(f"unknown law {law!r}; known: {', '.join(LAW_NAMES)}")


def law_support(law: str) -> tuple[float, float | None]:
    """Support of a named law: (lower, upper); upper None means unbounded."""
    if law == "S1":
        return (0.0, None)
    if law in ("minrange", "maxrange", "m", "M", "delta", "Delta"):
        return (0.0, 1.0)
    raise ValueError(f"unknown law {law!r}; known: {', '.join(LAW_NAMES)}")
