"""Distances and goodness-of-fit utilities."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammaincc, gammainccinv, gammaincinv
from scipy.stats import chi2, ks_2samp

from permcycles import (
    ChiSquareResult,
    chi_square_gof,
    dkw_epsilon,
    empirical_cdf,
    exact_statistic_distribution,
    ks_distance,
    ks_two_sample,
    parse_weights,
    tv_distance,
)
from permcycles.gof import _gamma_q, pearson_correlation


def test_empirical_cdf_values():
    f = empirical_cdf([0.5, 0.2, 0.8], [0.0, 0.2, 0.5, 0.7, 1.0])
    assert f == pytest.approx([0.0, 1 / 3, 2 / 3, 2 / 3, 1.0])
    # right-continuity: the grid point equal to a sample counts it
    assert empirical_cdf([0.4], [0.4])[0] == 1.0
    with pytest.raises(ValueError):
        empirical_cdf([], [0.5])


def test_ks_distance():
    grid = np.linspace(0, 1, 11)
    assert ks_distance(grid, grid) == 0.0
    assert ks_distance(grid, grid * 0.5) == 0.5
    with pytest.raises(ValueError):
        ks_distance([0.1, 0.2], [0.1])


def test_ks_distance_point_mass_off_grid():
    # a point mass at 0.5 evaluated on a grid that avoids 0.5 is
    # indistinguishable from its own empirical CDF
    grid = np.array([0.1, 0.3, 0.7, 0.9])
    emp = empirical_cdf([0.5], grid)
    theory = (grid >= 0.5).astype(float)
    assert ks_distance(emp, theory) == 0.0


def test_ks_two_sample():
    assert ks_two_sample([1, 2, 3], [1, 2, 3]) == 0.0
    assert ks_two_sample([0, 0, 0], [1, 1, 1]) == 1.0
    gen = np.random.Generator(np.random.Philox(7))
    a = gen.normal(size=400)
    b = gen.normal(0.3, size=300)
    # agreement with the reference implementation, including tie handling
    assert ks_two_sample(a, b) == pytest.approx(ks_2samp(a, b).statistic, abs=1e-12)
    ties_a = np.repeat([0.0, 1.0], 50)
    ties_b = np.repeat([0.0, 1.0, 2.0], 30)
    assert ks_two_sample(ties_a, ties_b) == pytest.approx(
        ks_2samp(ties_a, ties_b).statistic, abs=1e-12
    )
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_tv_distance():
    assert tv_distance({0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}) == 0.0
    assert tv_distance({0: 1.0}, {1: 1.0}) == 1.0
    assert tv_distance({0: 0.6, 1: 0.4}, {0: 0.4, 1: 0.6}) == pytest.approx(0.2)
    # disjoint supports are handled through the key union
    assert tv_distance({0: 1.0}, {0: 0.5, 2: 0.5}) == pytest.approx(0.5)


def test_chi_square_exact_match():
    res = chi_square_gof([10, 20, 30], [10, 20, 30])
    assert res.statistic == 0.0
    assert res.p_value == pytest.approx(1.0)
    assert res.cells == 3
    assert not res.insufficient


def test_chi_square_against_scipy():
    obs = [18, 25, 41, 16]
    exp = [20.0, 30.0, 35.0, 15.0]
    res = chi_square_gof(obs, exp)
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    assert res.statistic == pytest.approx(stat, rel=1e-12)
    assert res.dof == 3
    assert res.p_value == pytest.approx(float(chi2.sf(stat, 3)), rel=1e-10)


def test_chi_square_pooling():
    # the 1.0-expected cell merges into its smaller neighbour before testing
    res = chi_square_gof([5, 1, 30], [4.0, 1.0, 31.0])
    assert res.cells == 2
    assert res.dof == 1
    assert not res.insufficient
    assert res.statistic == pytest.approx((6 - 5.0) ** 2 / 5.0 + (30 - 31.0) ** 2 / 31.0)


def test_chi_square_insufficient():
    res = chi_square_gof([2, 1], [1.5, 1.5])
    assert res.insufficient
    assert math.isnan(res.p_value)
    assert res.dof == 0
    assert isinstance(res, ChiSquareResult)


def test_chi_square_validation():
    with pytest.raises(ValueError):
        chi_square_gof([1, 2], [1.0])
    with pytest.raises(ValueError):
        chi_square_gof([], [])
    with pytest.raises(ValueError):
        chi_square_gof([10, 10], [5.0, 5.0])  # totals differ
    with pytest.raises(ValueError):
        chi_square_gof([-1, 21], [10.0, 10.0])


def _mp_gamma_q(a, x):
    with mpmath.workdps(40):
        return float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))


def _assert_gamma_q_close(a, xs, rel=1e-12):
    """_gamma_q against scipy's gammaincc, or against mpmath where scipy is no
    1e-12 reference: below 1e-300, and for a >= 200 past |x - a| = 0.4 a, where
    scipy's prefactor is exp(a log x - x - lgamma(a)) in plain floating point
    (3.3e-13 off mpmath for a < 200, 9.7e-13 at a = 433.5, x = 1385.9)."""
    for x in xs:
        got = _gamma_q(a, float(x))
        ref = float(gammaincc(a, x))
        if (ref < 1e-300 and got >= 1e-300) or (a >= 200 and abs(x - a) > 0.4 * a):
            ref = _mp_gamma_q(a, x)
        if ref >= 1e-300:
            assert got == pytest.approx(ref, rel=rel), (a, x)
        else:
            assert got < 1e-300, (a, x)


def test_gamma_q_matches_scipy_on_a_dof_grid():
    for dof in range(1, 1001):
        a = dof / 2.0
        xs = np.linspace(0.0, 5.0 * a + 50.0, 12)[1:]
        _assert_gamma_q_close(a, np.concatenate([xs, [a, a + 1.0, np.nextafter(a + 1.0, 0.0)]]))


def _pooled_dofs(cell_pmfs, replicates):
    """The chi-square dofs left after pooling each pmf's expected counts."""
    dofs = set()
    for pmf in cell_pmfs:
        expected = [replicates * p for p in pmf] + [replicates * max(0.0, 1.0 - math.fsum(pmf))]
        dofs.add(chi_square_gof(expected, expected).dof)
    return dofs


def test_gamma_q_at_the_counts_workloads_pooled_cells():
    # counts_n5: ewens:1.5 at n = 5 against the oracle, 20000 replicates;
    # counts_n20k: Poisson(theta_k / k) for poly:1,0.5, 60 replicates; k <= 3
    ws = parse_weights("ewens:1.5")
    oracle = [exact_statistic_distribution(ws, 5, f"count:{k}").probabilities for k in (1, 2, 3)]
    poisson = [[math.exp(-m) * m**j / math.factorial(j) for j in range(12)]
               for m in (k**0.5 / k for k in (1, 2, 3))]
    dofs = _pooled_dofs(oracle, 20000) | _pooled_dofs(poisson, 60)
    assert dofs and 0 not in dofs
    for dof in sorted(dofs):
        a = dof / 2.0
        _assert_gamma_q_close(a, np.linspace(0.0, 5.0 * a + 50.0, 2001)[1:])


@pytest.mark.parametrize("dof", [1, 2, 3, 5, 12, 61, 300, 1000])
def test_gamma_q_tails_against_mpmath(dof):
    a = dof / 2.0
    levels = [10.0**-m for m in (1, 3, 10, 30, 100, 200, 250, 300)]
    upper = [float(gammainccinv(a, q)) for q in levels]  # Q down to 1e-300
    lower = [float(gammaincinv(a, p)) for p in levels]   # Q up to 1 - 1e-300
    for x in upper + lower:
        assert _gamma_q(a, x) == pytest.approx(_mp_gamma_q(a, x), rel=1e-12), x
    assert _gamma_q(a, upper[-1]) < 1e-299


def test_gamma_q_edges():
    for a in (0.5, 1.0, 7.5, 500.0):
        assert _gamma_q(a, 0.0) == 1.0
    for a, x in ((0.0, 1.0), (-1.0, 1.0), (1.0, -1e-300), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            _gamma_q(a, x)


def test_dkw_epsilon():
    assert dkw_epsilon(10_000) == pytest.approx(
        math.sqrt(math.log(40.0) / 20_000.0), rel=1e-14
    )
    # quadrupling the sample halves the band
    assert dkw_epsilon(4 * 977) == pytest.approx(dkw_epsilon(977) / 2, rel=1e-12)
    with pytest.raises(ValueError):
        dkw_epsilon(0)


def test_pearson_correlation():
    x = np.arange(10.0)
    assert pearson_correlation(x, 2 * x + 1) == pytest.approx(1.0)
    assert pearson_correlation(x, -x) == pytest.approx(-1.0)
    assert math.isnan(pearson_correlation(x, np.ones(10)))
    with pytest.raises(ValueError):
        pearson_correlation(x, x[:5])
    with pytest.raises(ValueError):
        pearson_correlation([1.0], [2.0])
