"""Statistical distances and goodness-of-fit machinery.

Small, dependency-light building blocks shared by the experiment harness:
empirical CDFs, Kolmogorov-Smirnov distances (one grid-based and one
classical two-sample), total variation between finite pmfs, a chi-square
test with automatic cell pooling, and the DKW confidence width.

The chi-square p-value is the regularized upper incomplete gamma function
Q(a, x), computed as in Press et al., *Numerical Recipes*, section 6.2: the
power series for P = 1 - Q below x = a + 1 and the continued fraction for Q,
summed by the modified Lentz method, above it.  Both share the prefactor
x**a e**-x / Gamma(a), taken in log space from Stirling's series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "empirical_cdf",
    "ks_distance",
    "ks_two_sample",
    "tv_distance",
    "chi_square_gof",
    "ChiSquareResult",
    "dkw_epsilon",
    "pearson_correlation",
]


def empirical_cdf(samples, grid) -> np.ndarray:
    """Right-continuous empirical CDF of ``samples`` evaluated on ``grid``."""
    samples = np.sort(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("empirical CDF needs at least one sample")
    grid = np.asarray(grid, dtype=float)
    return np.searchsorted(samples, grid, side="right") / samples.size


def ks_distance(ecdf_values, cdf_values) -> float:
    """Sup distance between two CDFs evaluated on a common grid."""
    a = np.asarray(ecdf_values, dtype=float)
    b = np.asarray(cdf_values, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"CDF grids differ in shape: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


def ks_two_sample(a, b) -> float:
    """Classical two-sample KS statistic (exact sup over pooled jump points)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("two-sample KS needs non-empty samples")
    pooled = np.concatenate([a, b])
    fa_r = np.searchsorted(a, pooled, side="right") / a.size
    fb_r = np.searchsorted(b, pooled, side="right") / b.size
    fa_l = np.searchsorted(a, pooled, side="left") / a.size
    fb_l = np.searchsorted(b, pooled, side="left") / b.size
    return float(
        max(np.max(np.abs(fa_r - fb_r)), np.max(np.abs(fa_l - fb_l)))
    )


def tv_distance(p: Mapping, q: Mapping) -> float:
    """Total variation distance between two finite pmfs given as mappings."""
    keys = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


_MIN_EXPECTED = 5.0  # chi-square cells expecting fewer counts are pooled with a neighbour


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float
    cells: int
    insufficient: bool = False


def chi_square_gof(observed, expected) -> ChiSquareResult:
    """Pearson chi-square test with adjacent-cell pooling.

    ``observed`` are counts, ``expected`` the model's expected counts for the
    same cells (totals must agree).  Cells with expected count below
    ``_MIN_EXPECTED`` are merged into their smaller neighbor until all pass.
    If pooling collapses everything into a single cell the sample cannot
    support the test and the result is flagged insufficient with a NaN
    p-value.
    """
    obs = [float(v) for v in observed]
    exp = [float(v) for v in expected]
    if len(obs) != len(exp):
        raise ValueError(f"cell counts differ in length: {len(obs)} vs {len(exp)}")
    if not obs:
        raise ValueError("chi-square needs at least one cell")
    if any(e < 0 for e in exp) or any(o < 0 for o in obs):
        raise ValueError("counts must be non-negative")
    t_obs, t_exp = math.fsum(obs), math.fsum(exp)
    if not math.isclose(t_obs, t_exp, rel_tol=1e-6, abs_tol=1e-6):
        raise ValueError(f"totals differ: observed {t_obs}, expected {t_exp}")

    while len(exp) > 1 and min(exp) < _MIN_EXPECTED:
        i = exp.index(min(exp))
        if i == 0:
            j = 1
        elif i == len(exp) - 1:
            j = i - 1
        else:
            j = i - 1 if exp[i - 1] <= exp[i + 1] else i + 1
        exp[j] += exp[i]
        obs[j] += obs[i]
        del exp[i], obs[i]

    cells = len(exp)
    if cells < 2:
        return ChiSquareResult(0.0, 0, math.nan, cells, insufficient=True)
    stat = math.fsum((o - e) ** 2 / e for o, e in zip(obs, exp))
    dof = cells - 1
    return ChiSquareResult(stat, dof, _gamma_q(dof / 2.0, stat / 2.0), cells)


_EPS = math.ulp(1.0)
_TINY = 1e-300
_MAX_TERMS = 100_000
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_gamma_prefactor(a: float, x: float) -> float:
    """log(x**a e**-x / Gamma(a)), with no cancellation between large terms.

    Written as a log(x / a) - (x - a) + log(a / 2 pi) / 2 - r(a), where r(a)
    is the remainder of Stirling's series for lgamma(a); near x = a the log
    is log1p((x - a) / a).
    """
    if a >= 15.0:  # five terms of the series leave less than 3e-16
        r2 = 1.0 / (a * a)
        rest = (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680 - r2 / 1188)))) / a
    else:
        rest = math.lgamma(a) - (a - 0.5) * math.log(a) + a - _HALF_LOG_2PI
    u = (x - a) / a
    log_ratio = math.log1p(u) if abs(u) < 0.5 else math.log(x / a)
    return a * log_ratio - (x - a) + 0.5 * math.log(a) - _HALF_LOG_2PI - rest


def _gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a)."""
    if not (0.0 < a < math.inf and x >= 0.0):
        raise ValueError(f"Q(a, x) needs finite a > 0 and x >= 0, got a={a}, x={x}")
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    prefactor = math.exp(_log_gamma_prefactor(a, x))
    if x < a + 1.0:
        # P(a, x) = prefactor * sum_{i >= 0} x**i / (a (a + 1) ... (a + i))
        term = total = 1.0 / a
        for i in range(1, _MAX_TERMS):
            term *= x / (a + i)
            total += term
            if term <= total * _EPS:
                return 1.0 - prefactor * total
    else:
        # Q(a, x) = prefactor / (x + 1 - a - 1 (1 - a) / (x + 3 - a - 2 (2 - a) / (x + 5 - a - ...)))
        b = x + 1.0 - a
        c, d = 1.0 / _TINY, 1.0 / b
        frac = d
        for i in range(1, _MAX_TERMS):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            c = b + an / c
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = c if abs(c) >= _TINY else _TINY
            frac *= d * c
            if abs(d * c - 1.0) <= _EPS:
                return prefactor * frac
    raise ArithmeticError(f"Q({a}, {x}) did not converge in {_MAX_TERMS} terms")


# Miss probability of the DKW band: the report's dkw_epsilon_95 is its 95% level
_DKW_ALPHA = 0.05


def dkw_epsilon(n: int) -> float:
    """Half-width of the 95% DKW confidence band for an n-sample empirical CDF."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.sqrt(math.log(2.0 / _DKW_ALPHA) / (2.0 * n))


def pearson_correlation(a, b) -> float:
    """Sample correlation; NaN when either side has zero variance."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("correlation needs equally many observations")
    if a.size < 2:
        raise ValueError("correlation needs at least two observations")
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        return math.nan
    return float(np.corrcoef(a, b)[0, 1])
