"""Closed-form limiting laws for scaled cycle statistics.

As n grows, the k-cycle counts become independent Poisson(theta_k / k)
variables, and the scaled statistics of the cycle point measure converge to
laws of the limiting Poisson process.  This module evaluates those laws:
Laplace transforms of additive statistics, the CDF of the scaled
fixed-point sum, the range and extreme CDFs, and the spacing laws of the
limiting fixed-point configuration.  The fixed-point sum and the spacing
laws are Poisson(theta1) mixtures over the number of level-1 points; given
r points, the sum and the largest spacing are B-spline (Irwin-Hall)
quantities, evaluated by a recursion with non-negative weights, so their
values lie in [0, 1] without clamping.  Every CDF with a point mass reports
it through :func:`law_atoms` so callers can treat atoms separately from the
continuous part.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .rng import RngStream
from .weights import WeightSequence

__all__ = [
    "poisson_count_pmf",
    "laplace_additive",
    "laplace_k_cycle_sum",
    "cdf_fixed_point_sum",
    "cdf_min_range",
    "cdf_max_range",
    "cdf_min_fixed_point",
    "cdf_max_fixed_point",
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
# Scaled fixed-point sum
# ---------------------------------------------------------------------------


def cdf_fixed_point_sum(x: float, theta1: float, eps: float = 1e-12) -> float:
    """CDF of the limiting scaled sum of fixed points.

    The law is compound Poisson: a Poisson(theta1) number r of independent
    uniforms on [0, 1] summed together, so F(x) = sum_r pois(r) F_r(x) with
    F_r the Irwin-Hall CDF, an atom of mass e^{-theta1} at 0 and a
    continuous part elsewhere.  F_r comes from the Cox-de Boor recursion

        F_r(y) = (y F_{r-1}(y) + (r - y) F_{r-1}(y - 1)) / r,  F_0(y) = 1{y >= 0},

    run on one row y = x, x - 1, ... with y clipped to r, so both weights
    are non-negative and nothing cancels.  ``eps`` bounds the Poisson mass
    left out, as in the spacing laws.
    """
    if theta1 < 0:
        raise ValueError(f"theta1 must be >= 0, got {theta1}")
    if x < 0:
        return 0.0
    terms = list(_poisson_terms(theta1, eps))
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


def sample_limit_spacings(theta1: float, rng: RngStream, size: int):
    """Draw ``size`` (min_spacing, max_spacing) pairs from the limiting law, as two arrays.

    A draw takes nu ~ Poisson(theta1) fixed points in the window and nu + 1
    independent exponentials X_1..X_{nu+1} with sum S: the smallest spacing
    is X_{nu+1} / ((nu + 1) S) and the largest sum_i X_i / (i S).  The atom
    at 1 (mass e^{-theta1}) is produced naturally by nu = 0 draws, where
    both spacings equal 1.
    """
    if theta1 < 0:
        raise ValueError(f"theta1 must be >= 0, got {theta1}")
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
    return 1.0 - survival


def cdf_max_spacing(x: float, theta1: float, eps: float = 1e-12) -> float:
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
    if theta1 < 0:
        raise ValueError(f"theta1 must be >= 0, got {theta1}")
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    terms = list(_poisson_terms(theta1, eps))
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


# ---------------------------------------------------------------------------
# Law registry: named CDFs with explicit atoms
# ---------------------------------------------------------------------------


class _Law(NamedTuple):
    cdf: Callable[..., float]  # F(x, theta), or F(x, theta, k) for a law that takes k
    takes_k: bool
    atom: float  # where the one atom sits; its mass is exp(-theta / k), k = 1 if none taken
    upper: float | None  # upper end of the support, whose lower end is 0; None: unbounded


_LAWS = {
    "S1": _Law(cdf_fixed_point_sum, False, 0.0, None),
    "minrange": _Law(cdf_min_range, True, 1.0, 1.0),
    "maxrange": _Law(cdf_max_range, True, 0.0, 1.0),
    "m": _Law(cdf_min_fixed_point, False, 1.0, 1.0),
    "M": _Law(cdf_max_fixed_point, False, 0.0, 1.0),
    "delta": _Law(cdf_min_spacing, False, 1.0, 1.0),
    "Delta": _Law(cdf_max_spacing, False, 1.0, 1.0),
}
LAW_NAMES = tuple(_LAWS)


def _law(law: str) -> _Law:
    if law not in _LAWS:
        raise ValueError(f"unknown law {law!r}; known: {', '.join(LAW_NAMES)}")
    return _LAWS[law]


def _need_k(law: str, k: int | None) -> tuple[int, ...]:
    """The cycle-length arguments of the law's CDF: (k,), or () for a law that takes none."""
    if not _law(law).takes_k:
        if k is not None:
            raise ValueError(f"law {law!r} takes no cycle length k")
        return ()
    if k is None or k < 2:
        raise ValueError(f"law {law!r} needs an explicit cycle length k >= 2")
    return (int(k),)


def limit_cdf(law: str, theta: float, k: int | None = None) -> Callable[[float], float]:
    """The CDF of a named limiting law as a scalar callable.

    ``theta`` is the weight at the relevant cycle length: theta_k for the
    range laws, theta_1 for all the fixed-point laws.
    """
    ks = _need_k(law, k)
    cdf = _LAWS[law].cdf
    return lambda x: cdf(x, theta, *ks)


def law_atoms(law: str, theta: float, k: int | None = None) -> dict[float, float]:
    """The point masses of a named limiting law, as {location: mass}."""
    ks = _need_k(law, k)
    return {_LAWS[law].atom: math.exp(-theta / (ks[0] if ks else 1))}


def law_support(law: str) -> tuple[float, float | None]:
    """Support of a named law: (lower, upper); upper None means unbounded."""
    return (0.0, _law(law).upper)
