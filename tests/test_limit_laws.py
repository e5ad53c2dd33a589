"""Closed-form limiting laws: transforms, CDFs, spacing mixture.

Frozen decimal literals in this file were computed with mpmath at 40 digits
(the compound-Poisson CDF) or follow from elementary closed forms evaluated
independently; the fixed-point sum and largest-spacing CDFs are also checked
against their alternating sums in exact rational arithmetic, and the
quadrature-based checks are genuine dual-route gates, not re-evaluations of
the same code path.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from permcycles import (
    RngStream,
    WeightSequence,
    cdf_fixed_point_sum,
    cdf_max_fixed_point,
    cdf_max_range,
    cdf_min_fixed_point,
    cdf_min_range,
    cdf_max_spacing,
    cdf_min_spacing,
    ks_two_sample,
    laplace_additive,
    laplace_k_cycle_sum,
    law_atoms,
    limit_cdf,
    poisson_count_pmf,
    sample_limit_spacings,
)
from permcycles.limit_laws import LAW_NAMES, law_support


# ------------------------------------------------------------ Poisson counts


def test_poisson_count_pmf_values():
    assert poisson_count_pmf(1.0, 1, 0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    # theta_2 = 2 at k = 2: mean 1, so P(count = 1) is e^{-1} as well
    assert poisson_count_pmf(2.0, 2, 1) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert poisson_count_pmf(0.0, 3, 0) == 1.0
    assert poisson_count_pmf(0.0, 3, 2) == 0.0


def test_poisson_count_pmf_sums_to_one():
    total = math.fsum(poisson_count_pmf(1.7, 2, j) for j in range(80))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_poisson_count_pmf_validation():
    with pytest.raises(ValueError):
        poisson_count_pmf(1.0, 0, 0)
    with pytest.raises(ValueError):
        poisson_count_pmf(1.0, 1, -1)
    with pytest.raises(ValueError):
        poisson_count_pmf(-0.5, 1, 0)


# ------------------------------------------------------- Laplace transforms


def test_laplace_k_cycle_sum_basics():
    assert laplace_k_cycle_sum(1.3, 2, 0.0) == 1.0
    assert laplace_k_cycle_sum(0.0, 2, 3.0) == 1.0
    # theta_1 = 1, k = 1, t = 1: kernel (1 - e^{-1}) - 1 = -e^{-1},
    # so the transform is exp(-1/e)
    assert laplace_k_cycle_sum(1.0, 1, 1.0) == pytest.approx(
        0.6922006275553464, rel=1e-15
    )
    ts = np.linspace(0.0, 6.0, 30)
    vals = [laplace_k_cycle_sum(1.0, 2, t) for t in ts]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        laplace_k_cycle_sum(1.0, 0, 1.0)
    with pytest.raises(ValueError):
        laplace_k_cycle_sum(1.0, 1, -0.5)


def _coord_sum(pts: np.ndarray) -> np.ndarray:
    return pts.sum(axis=1)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_laplace_additive_matches_closed_form(k, t):
    ws = WeightSequence.ewens(1.3)
    got = laplace_additive(ws, {k: _coord_sum}, t)
    want = laplace_k_cycle_sum(1.3, k, t)
    assert got == pytest.approx(want, abs=1e-6)


def test_laplace_additive_matches_closed_form_k4():
    got = laplace_additive(WeightSequence.uniform(), {4: _coord_sum}, 1.0)
    assert got == pytest.approx(laplace_k_cycle_sum(1.0, 4, 1.0), abs=1e-6)


def test_laplace_additive_multi_level_factorizes():
    ws = WeightSequence.ewens(0.8)
    t = 1.5
    both = laplace_additive(ws, {1: _coord_sum, 2: _coord_sum}, t)
    split = laplace_additive(ws, {1: _coord_sum}, t) * laplace_additive(
        ws, {2: _coord_sum}, t
    )
    assert both == pytest.approx(split, rel=1e-12)


def test_laplace_additive_t_zero_and_zero_weight():
    assert laplace_additive(WeightSequence.uniform(), {2: _coord_sum}, 0.0) == 1.0
    ws = WeightSequence.explicit((0.0, 1.0))
    # level-1 term drops out since theta_1 = 0
    got = laplace_additive(ws, {1: _coord_sum, 2: _coord_sum}, 1.0)
    assert got == pytest.approx(laplace_additive(ws, {2: _coord_sum}, 1.0), rel=1e-12)


def test_laplace_additive_non_symmetric_path():
    # f(x1, x2) = x2 on the level-2 wedge; exact exponent is
    # integral_0^1 x (1 - e^{-t x}) dx = 1/2 - (1 - e^{-t}(1 + t)) / t^2
    t = 1.0
    exact = 0.5 - (1.0 - math.exp(-t) * (1.0 + t)) / t**2
    got = laplace_additive(
        WeightSequence.uniform(),
        {2: lambda pts: pts[:, 1]},
        t,
        symmetric=False,
    )
    assert got == pytest.approx(math.exp(-exact), abs=5e-3)
    # the symmetric reduction and the masked path agree on symmetric f
    sym = laplace_additive(WeightSequence.uniform(), {2: _coord_sum}, t)
    masked = laplace_additive(
        WeightSequence.uniform(), {2: _coord_sum}, t, symmetric=False
    )
    assert masked == pytest.approx(sym, abs=5e-3)


# ------------------------------------------------ scaled fixed-point sum CDF


def test_cdf_fixed_point_sum_frozen_values():
    assert cdf_fixed_point_sum(2.5, 1.0) == pytest.approx(0.99365431756268029279, abs=1e-13)
    assert cdf_fixed_point_sum(0.75, 1.0) == pytest.approx(0.70004142860235339246, abs=1e-13)
    assert cdf_fixed_point_sum(1.0, 2.0) == pytest.approx(0.57549311069894668312, abs=1e-13)


def test_cdf_fixed_point_sum_shape():
    assert cdf_fixed_point_sum(-0.1, 1.0) == 0.0
    assert cdf_fixed_point_sum(0.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert cdf_fixed_point_sum(0.5, 0.0) == 1.0
    assert cdf_fixed_point_sum(40.0, 1.0) > 1.0 - 1e-12
    grid = np.linspace(-0.5, 8.0, 1000)
    for theta in (0.5, 1.0, 2.0):
        vals = [cdf_fixed_point_sum(x, theta) for x in grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_cdf_fixed_point_sum_laplace_identity(t):
    # t * integral e^{-tx} F(x) dx must equal the k = 1 transform; truncate
    # at 40 where 1 - F < 1e-12 and add the analytic tail e^{-40t}
    theta = 1.0
    pieces = [
        quad(lambda x: math.exp(-t * x) * cdf_fixed_point_sum(x, theta), j, j + 1.0)[0]
        for j in range(40)
    ]
    integral = t * math.fsum(pieces) + math.exp(-40.0 * t)
    assert integral == pytest.approx(laplace_k_cycle_sum(theta, 1, t), abs=1e-8)


def _fixed_point_sum_laplace_series(theta1: float, t: float, terms: int = 60) -> float:
    """t times the Laplace transform of cdf_fixed_point_sum, by its own series.

    Writing F as its alternating sum over unit shifts x - j and integrating
    e^{-tx} dF(x) by parts term by term gives e^{theta1 (1/t - 1)} times
    the partial sums of exp(-theta1 e^{-t} / t); this version checks that
    the shift expansion and the transform exp(theta1 ((1 - e^{-t})/t - 1))
    agree.
    """
    z = -theta1 * math.exp(-t) / t
    total = 0.0
    term = 1.0
    for j in range(terms):
        if j:
            term *= z / j
        total += term
    return math.exp(-theta1) * math.exp(theta1 / t) * total


def test_fixed_point_sum_series_transform_identity():
    # the partial-sum route through the shift expansion collapses to the same
    # closed form as the k = 1 cycle-sum transform
    for t in (0.5, 1.0, 2.0):
        got = _fixed_point_sum_laplace_series(1.3, t)
        assert got == pytest.approx(laplace_k_cycle_sum(1.3, 1, t), rel=1e-12)


def _poisson_weight(theta: float, r: int) -> float:
    return math.exp(r * math.log(theta) - theta - math.lgamma(r + 1))


def _exact_mixture(conditional, x: float, theta: float) -> float:
    """sum_r pois(r) conditional(x, r), each conditional law exact and rounded once.

    Runs r up to theta + 10 sqrt(theta) + 30, past all but ~1e-20 of the
    Poisson mass, so this is the law itself and not the code's truncated
    mixture.
    """
    top = int(theta + 10.0 * math.sqrt(theta) + 30.0)
    return math.fsum(_poisson_weight(theta, r) * float(conditional(x, r)) for r in range(top + 1))


def _exact_irwin_hall_cdf(x: float, r: int) -> Fraction:
    """P(sum of r uniforms <= x) = sum_k (-1)^k C(r, k) (x - k)^r / r!, in rationals."""
    if x < 0:
        return Fraction(0)
    if x >= r:
        return Fraction(1)
    num, den = x.as_integer_ratio()
    total = sum((-1) ** k * math.comb(r, k) * (num - k * den) ** r for k in range(int(x) + 1))
    return Fraction(total, den ** r * math.factorial(r))


def _exact_max_spacing_cdf(x: float, r: int) -> Fraction:
    """P(all r + 1 uniform spacings <= x) = sum_j (-1)^j C(r+1, j) (1 - jx)_+^r, in rationals."""
    num, den = x.as_integer_ratio()
    total = sum(
        (-1) ** j * math.comb(r + 1, j) * (den - j * num) ** r
        for j in range(r + 2) if den - j * num > 0
    )
    return Fraction(total, den ** r)


@pytest.mark.parametrize("x,want", [(30.0, 0.9999999995640), (43.0, 1.0)])
def test_cdf_fixed_point_sum_at_theta_20(x, want):
    # the Bessel series this replaced returned 0.788 and 0.0 here
    got = cdf_fixed_point_sum(x, 20.0)
    assert got == pytest.approx(_exact_mixture(_exact_irwin_hall_cdf, x, 20.0), abs=1e-12)
    assert got == pytest.approx(want, abs=1e-12)


def test_cdf_fixed_point_sum_at_theta_300():
    # the Bessel series overflowed here; the mean is theta / 2 = 150
    got = cdf_fixed_point_sum(150.5, 300.0)
    assert got == pytest.approx(_exact_mixture(_exact_irwin_hall_cdf, 150.5, 300.0), abs=1e-12)


@pytest.mark.parametrize("theta", [0.5, 4.75, 50.0])
def test_cdf_fixed_point_sum_matches_exact_arithmetic(theta):
    for x in (0.125, 1.0, 2.5, 11.5, theta / 2 + 0.375):
        got = cdf_fixed_point_sum(x, theta)
        assert got == pytest.approx(_exact_mixture(_exact_irwin_hall_cdf, x, theta), abs=1e-12)


# ------------------------------------------------------ range / extreme CDFs


def test_range_cdf_values():
    assert cdf_min_range(0.5, 1.0, 2) == pytest.approx(0.31271072120902776, rel=1e-14)
    assert cdf_max_range(0.5, 1.0, 2) == pytest.approx(0.8824969025845955, rel=1e-14)
    assert cdf_min_range(-0.2, 1.0, 2) == 0.0
    assert cdf_min_range(1.0, 1.0, 2) == 1.0
    assert cdf_max_range(1.2, 1.0, 2) == 1.0
    # atoms: no-k-cycle mass e^{-theta_k/k} sits at 1 for the min law and
    # at 0 for the max law
    assert 1.0 - cdf_min_range(1.0 - 1e-12, 2.0, 2) == pytest.approx(
        math.exp(-1.0), abs=1e-9
    )
    assert cdf_max_range(0.0, 2.0, 2) == pytest.approx(math.exp(-1.0), rel=1e-12)
    with pytest.raises(ValueError):
        cdf_min_range(0.5, 1.0, 1)
    with pytest.raises(ValueError):
        cdf_max_range(0.5, -1.0, 2)


def test_extreme_fixed_point_cdf_values():
    assert cdf_min_fixed_point(0.5, 2.0) == pytest.approx(0.6321205588285577, rel=1e-14)
    assert cdf_max_fixed_point(0.5, 2.0) == pytest.approx(0.36787944117144233, rel=1e-14)
    assert cdf_min_fixed_point(-0.5, 1.0) == 0.0
    assert cdf_min_fixed_point(1.0, 1.0) == 1.0
    assert cdf_max_fixed_point(0.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert 1.0 - cdf_min_fixed_point(1.0 - 1e-12, 1.0) == pytest.approx(
        math.exp(-1.0), abs=1e-9
    )


# ------------------------------------------------------------- spacing laws


@dataclass(frozen=True)
class _MixtureSample:
    """One draw of the limiting spacing construction, kept as the scalar reference.

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


def _sample_spacing_mixture(theta1, rng):
    """Draw the (nu, exponentials) pair behind both limiting spacing laws."""
    if theta1 < 0:
        raise ValueError(f"theta1 must be >= 0, got {theta1}")
    nu = int(rng.gen.poisson(theta1))
    gaps = tuple(float(g) for g in rng.gen.exponential(size=nu + 1))
    return _MixtureSample(nu, gaps)


def _scalar_limit_spacings(theta1, rng):
    """One (min_spacing, max_spacing) pair, drawn one exponential at a time."""
    ms = _sample_spacing_mixture(theta1, rng)
    return ms.min_spacing(), ms.max_spacing()


def test_mixture_sample_hand_values():
    assert _MixtureSample(0, (0.7,)).min_spacing() == pytest.approx(1.0, rel=1e-15)
    assert _MixtureSample(0, (0.7,)).max_spacing() == pytest.approx(1.0, rel=1e-15)
    ms = _MixtureSample(2, (1.0, 2.0, 3.0))
    assert ms.min_spacing() == pytest.approx(3.0 / (3 * 6.0), rel=1e-14)
    assert ms.max_spacing() == pytest.approx((1.0 + 1.0 + 1.0) / 6.0, rel=1e-14)


def test_sample_spacing_mixture_behaviour():
    rng = RngStream(31, 0)
    draws = [_sample_spacing_mixture(1.0, rng) for _ in range(20_000)]
    for ms in draws[:200]:
        assert len(ms.gaps_raw) == ms.nu + 1
        assert all(g > 0 for g in ms.gaps_raw)
        assert ms.min_spacing() <= ms.max_spacing() + 1e-15
    nus = np.array([ms.nu for ms in draws])
    assert abs(nus.mean() - 1.0) < 4 * math.sqrt(1.0 / len(draws))
    assert abs(nus.var() - 1.0) < 0.05
    with pytest.raises(ValueError):
        _sample_spacing_mixture(-1.0, RngStream(0, 0))


def test_sample_limit_spacings_scalar_and_batch():
    lo, hi = _scalar_limit_spacings(1.0, RngStream(5, 1))
    lo2, hi2 = _scalar_limit_spacings(1.0, RngStream(5, 1))
    assert (lo, hi) == (lo2, hi2)
    mins, maxs = sample_limit_spacings(1.0, RngStream(5, 2), size=50_000)
    assert mins.shape == maxs.shape == (50_000,)
    assert (mins > 0).all()
    assert (mins <= maxs + 1e-15).all()
    assert (maxs <= 1.0 + 1e-12).all()
    # the nu = 0 atom at 1 has mass e^{-theta}
    frac = float((mins == 1.0).mean())
    se = math.sqrt(math.exp(-1.0) * (1 - math.exp(-1.0)) / 50_000)
    assert abs(frac - math.exp(-1.0)) < 4 * se


def test_sample_limit_spacings_batch_matches_scalar_law():
    theta = 1.4
    batch_min, batch_max = sample_limit_spacings(theta, RngStream(6, 0), size=30_000)
    scalar = [_scalar_limit_spacings(theta, RngStream(6, (1, i))) for i in range(10_000)]
    s_min = np.array([v[0] for v in scalar])
    s_max = np.array([v[1] for v in scalar])
    assert ks_two_sample(batch_min, s_min) < 0.025
    assert ks_two_sample(batch_max, s_max) < 0.025


def test_spacing_cdf_boundaries():
    for theta in (0.5, 1.0, 2.5):
        for cdf in (cdf_min_spacing, cdf_max_spacing):
            assert cdf(0.0, theta) == 0.0
            assert cdf(-1.0, theta) == 0.0
            assert cdf(1.0, theta) == 1.0
            # just below the atom at 1 the CDF has paid out everything except
            # the nu = 0 mass
            assert cdf(1.0 - 1e-9, theta) == pytest.approx(
                1.0 - math.exp(-theta), abs=1e-6
            )
        grid = np.linspace(0.0, 1.0, 1000)
        mins = [cdf_min_spacing(x, theta) for x in grid]
        maxs = [cdf_max_spacing(x, theta) for x in grid]
        assert all(b >= a - 1e-12 for a, b in zip(mins, mins[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(maxs, maxs[1:]))
        # the smallest spacing is stochastically below the largest
        assert all(lo >= hi - 1e-12 for lo, hi in zip(mins, maxs))


@pytest.mark.parametrize("theta", [450.0, 800.0])
def test_spacing_cdfs_raise_when_poisson_terms_miss_mass(theta):
    # the mixture over r ~ Poisson(theta) stops at r = 500: at theta = 450
    # that leaves ~1% of the mass out, and at theta = 800 exp(-theta)
    # underflows so every term is 0; both must fail loudly, not report
    for cdf in (cdf_min_spacing, cdf_max_spacing):
        for x in (0.001, 0.5, 0.999):
            with pytest.raises(ValueError, match="mass"):
                cdf(x, theta)


def test_spacing_cdfs_return_just_below_the_raise():
    # with eps = 1e-12 the terms r <= 500 cover the Poisson mass up to
    # theta ~ 359.5; at 355 both CDFs still return
    theta = 355.0
    for cdf in (cdf_min_spacing, cdf_max_spacing):
        assert cdf(0.5, theta) == pytest.approx(1.0, abs=1e-11)
        assert cdf(0.999, theta) == pytest.approx(1.0, abs=1e-11)
    assert cdf_min_spacing(1e-4, theta) == pytest.approx(
        1.0 - sum(math.exp(-theta + r * math.log(theta) - math.lgamma(r + 1))
                  * (1.0 - (r + 1) * 1e-4) ** r for r in range(501)), abs=1e-11)
    with pytest.raises(ValueError, match="mass"):
        cdf_min_spacing(0.5, 360.0)


def test_spacing_cdfs_accept_eps_zero():
    # eps = 0 runs all 500 terms; the sum's rounding must not count as missed mass
    for theta in (0.5, 2.5, 50.0):
        for cdf in (cdf_min_spacing, cdf_max_spacing):
            for x in (0.05, 0.5, 0.999):
                assert cdf(x, theta, eps=0.0) == pytest.approx(cdf(x, theta), abs=1e-12)


@pytest.mark.parametrize("x,theta", [(0.005, 50.0), (0.01, 50.0), (0.005, 100.0)])
def test_max_spacing_cdf_is_tiny_where_the_alternating_sum_cancels(x, theta):
    # the alternating sum lost every digit here (0.127, 1.1e-5 and 1.0 once
    # clamped); the exact values are 1.2e-224, 1.7e-76 and 9.1e-153
    assert 0.0 <= cdf_max_spacing(x, theta) <= 1e-60


def test_cdf_max_spacing_at_theta_50():
    # at x = 0.03 the alternating sum was 1.7e-12 off; at x = 0.05, where 1/x
    # is whole, a recursion started from the r = 0 indicator doubles the value
    for x in (0.03, 0.05):
        got = cdf_max_spacing(x, 50.0)
        assert got == pytest.approx(_exact_mixture(_exact_max_spacing_cdf, x, 50.0), abs=1e-12)
    assert cdf_max_spacing(0.05, 50.0) == pytest.approx(0.0056912589975, abs=1e-12)


@pytest.mark.parametrize("theta", [0.5, 4.75, 50.0])
def test_cdf_max_spacing_matches_exact_arithmetic(theta):
    # 1/x is whole at all but x = 0.75; at x = 0.2, as at 0.05, rounding
    # gives 1 - 4x < x, where a start from the r = 0 indicator doubled the value
    for x in (0.0625, 0.125, 0.2, 0.25, 0.5, 0.75):
        got = cdf_max_spacing(x, theta)
        assert got == pytest.approx(_exact_mixture(_exact_max_spacing_cdf, x, theta), abs=1e-12)


@pytest.mark.parametrize("theta", [0.001, 0.5, 5.0, 50.0, 300.0])
def test_fixed_point_cdfs_are_cdfs_with_their_atoms(theta):
    # no clamp keeps these in [0, 1] any more, over the whole range of theta
    # the Poisson mixture covers: they stay there because nothing cancels
    atom = math.exp(-theta)
    top = max(10.0, theta)
    grids = {
        "S1": np.linspace(-0.5, top, 200),
        "delta": np.linspace(-0.01, 1.01, 200),
        "Delta": np.linspace(-0.01, 1.01, 200),
    }
    for law, grid in grids.items():
        cdf = limit_cdf(law, theta)
        vals = [cdf(float(x)) for x in grid]
        assert all(0.0 <= v <= 1.0 for v in vals), law
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), law
    s1 = limit_cdf("S1", theta)
    assert s1(-1e-12) == 0.0
    assert s1(0.0) == pytest.approx(atom, rel=1e-12)
    for law in ("delta", "Delta"):
        cdf = limit_cdf(law, theta)
        below = cdf(1.0 - 1e-12)
        assert cdf(1.0) - below == pytest.approx(atom, abs=1e-11), law
        assert below == pytest.approx(1.0 - atom, abs=1e-11), law


def test_spacing_cdfs_match_the_mixture():
    # deconditioned closed forms against 200k draws of the mixture they
    # should integrate out, on a 50-point grid, three-sigma gate
    theta = 1.0
    n_draws = 200_000
    mins, maxs = sample_limit_spacings(theta, RngStream(88, 0), size=n_draws)
    grid = np.linspace(0.01, 0.97, 50)
    for samples, cdf in ((mins, cdf_min_spacing), (maxs, cdf_max_spacing)):
        samples = np.sort(samples)
        for x in grid:
            f = cdf(float(x), theta)
            emp = np.searchsorted(samples, x, side="right") / n_draws
            se = math.sqrt(max(f * (1 - f), 1e-12) / n_draws)
            assert abs(emp - f) < 3 * se + 5e-4, (x, emp, f)


# ------------------------------------------------------------- law registry


def test_limit_cdf_registry_matches_direct_functions():
    assert limit_cdf("S1", 1.0)(0.75) == cdf_fixed_point_sum(0.75, 1.0)
    assert limit_cdf("minrange", 1.0, 2)(0.5) == cdf_min_range(0.5, 1.0, 2)
    assert limit_cdf("maxrange", 1.0, 2)(0.5) == cdf_max_range(0.5, 1.0, 2)
    assert limit_cdf("m", 2.0)(0.5) == cdf_min_fixed_point(0.5, 2.0)
    assert limit_cdf("M", 2.0)(0.5) == cdf_max_fixed_point(0.5, 2.0)
    assert limit_cdf("delta", 1.0)(0.3) == cdf_min_spacing(0.3, 1.0)
    assert limit_cdf("Delta", 1.0)(0.3) == cdf_max_spacing(0.3, 1.0)
    with pytest.raises(ValueError):
        limit_cdf("S2", 1.0)
    with pytest.raises(ValueError):
        limit_cdf("minrange", 1.0)  # k missing
    with pytest.raises(ValueError, match="takes no cycle length"):
        limit_cdf("m", 1.0, 3)
    with pytest.raises(ValueError, match="takes no cycle length"):
        law_atoms("S1", 1.0, 1)


def test_law_atoms():
    e = math.exp(-1.3)
    assert law_atoms("S1", 1.3) == pytest.approx({0.0: e})
    assert law_atoms("m", 1.3) == pytest.approx({1.0: e})
    assert law_atoms("M", 1.3) == pytest.approx({0.0: e})
    assert law_atoms("delta", 1.3) == pytest.approx({1.0: e})
    assert law_atoms("Delta", 1.3) == pytest.approx({1.0: e})
    assert law_atoms("minrange", 2.6, 2) == pytest.approx({1.0: e})
    assert law_atoms("maxrange", 2.6, 2) == pytest.approx({0.0: e})
    with pytest.raises(ValueError):
        law_atoms("nope", 1.0)


@pytest.mark.parametrize("law", LAW_NAMES)
def test_every_law_is_a_cdf(law):
    theta, k = 1.3, 3 if law in ("minrange", "maxrange") else None
    cdf = limit_cdf(law, theta, k)
    lo, hi = law_support(law)
    top = 10.0 if hi is None else hi + 0.1
    grid = np.linspace(lo - 0.25, top, 1000)
    vals = [cdf(float(x)) for x in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert cdf(lo - 0.05) == 0.0
    assert vals[-1] > 0.999999
    # atoms are where the CDF jumps; check right-continuity there
    for loc, mass in law_atoms(law, theta, k).items():
        assert cdf(loc) - cdf(loc - 1e-9) == pytest.approx(mass, abs=1e-5)
        assert cdf(loc + 1e-12) == pytest.approx(cdf(loc), abs=1e-9)
