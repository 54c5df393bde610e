"""Hermite polynomial values, identities, and coefficient expectations."""

import math

import numpy as np
import pytest

from cumlab.hermite import (
    DEFAULT_MAX_DEGREE,
    DegreeError,
    GDistribution,
    HermiteBasis,
    hermite_coeff_expectation,
    hermite_eval,
)
from oracles import abs_coefficient_sum, eval_exact

# h_0 .. h_4 written out longhand, independent of the recurrence
EXPLICIT = [
    lambda x: 1.0,
    lambda x: x,
    lambda x: x**2 - 1,
    lambda x: x**3 - 3 * x,
    lambda x: x**4 - 6 * x**2 + 3,
]


def test_low_degree_values():
    assert hermite_eval(0, 3.7) == 1.0
    assert hermite_eval(4, 0.0) == 3.0
    assert hermite_eval(4, 1.0) == -2.0
    xs = np.linspace(-3, 3, 31)
    for m, poly in enumerate(EXPLICIT):
        np.testing.assert_allclose(hermite_eval(m, xs), poly(xs), rtol=1e-13, atol=1e-13)


def test_array_and_scalar_agree():
    xs = np.linspace(-2, 2, 7)
    vals = hermite_eval(6, xs)
    assert vals.shape == xs.shape
    for x, v in zip(xs, vals):
        assert hermite_eval(6, float(x)) == v


def test_degree_out_of_range():
    with pytest.raises(DegreeError):
        hermite_eval(DEFAULT_MAX_DEGREE + 1, 0.5)
    with pytest.raises(DegreeError):
        HermiteBasis(8).coefficients(9)


def test_basis_monic_and_recurrence():
    basis = HermiteBasis(16)
    for m in range(17):
        coeffs = basis.coefficients(m)
        assert coeffs[m] == 1  # monic
    # a_{m+1,k} = a_{m,k-1} - (k+1) a_{m,k+1}
    for m in range(16):
        cur = basis.coefficients(m) + [0, 0]
        nxt = basis.coefficients(m + 1)
        assert nxt[0] == -cur[1]
        for k in range(1, m + 2):
            assert nxt[k] == cur[k - 1] - (k + 1) * cur[k + 1]


def test_abs_coefficient_sum_bounded_by_factorial():
    basis = HermiteBasis(12)
    for m in range(13):
        assert abs_coefficient_sum(basis, m) <= math.factorial(m)


def test_eval_matches_exact_integer_table():
    basis = HermiteBasis(12)
    for m in range(13):
        for x in (-2, -1, 0, 1, 3):
            assert hermite_eval(m, float(x)) == float(eval_exact(basis, m, x))


def test_orthogonality_monte_carlo():
    # E[h_n(z) h_m(z)] = n! delta_{nm} within 5 standard errors at 1e6 draws.
    # The SE comes from the exact Var(h_n h_m), a polynomial moment that a
    # high-order Gauss-Hermite rule integrates exactly; the empirical SD of
    # h_6^2 is badly downward-biased at this sample size.
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    weights = weights / weights.sum()
    N = 1_000_000
    rng = np.random.default_rng(20240817)
    z = rng.standard_normal(N)
    H = np.stack([hermite_eval(m, z) for m in range(7)])
    Hq = np.stack([hermite_eval(m, nodes) for m in range(7)])
    for n in range(7):
        for m in range(n, 7):
            expected = math.factorial(n) if n == m else 0.0
            second = float(weights @ (Hq[n] * Hq[m]) ** 2)  # exact E[(h_n h_m)^2]
            var = max(second - expected**2, 0.0)
            est = (H[n] * H[m]).mean()
            if var < 1e-12:  # h_0 h_0 is constant
                assert est == expected
            else:
                se = np.sqrt(var / N)
                assert abs(est - expected) < 5 * se, (n, m, est, expected, se)


def test_binomial_sum_identity():
    # h_m(x+y) = sum_k C(m,k) x^(m-k) h_k(y)
    for m in range(9):
        for x in (-1.5, -0.3, 0.7, 2.0):
            for y in (-2.0, 0.0, 0.4, 1.3):
                rhs = sum(
                    math.comb(m, k) * x ** (m - k) * hermite_eval(k, y) for k in range(m + 1)
                )
                lhs = hermite_eval(m, x + y)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_scaling_identity():
    # h_m(c x) = sum_j c^(m-2j) (c^2-1)^j C(m,2j) (2j-1)!! h_{m-2j}(x)
    for m in range(9):
        for c in (1.0, np.sqrt(2.0), 2.0):
            for x in (-1.7, -0.2, 0.9, 2.4):
                rhs = 0.0
                for j in range(m // 2 + 1):
                    dfact = math.prod(range(2 * j - 1, 0, -2)) if j else 1
                    rhs += (
                        c ** (m - 2 * j)
                        * (c * c - 1.0) ** j
                        * math.comb(m, 2 * j)
                        * dfact
                        * hermite_eval(m - 2 * j, x)
                    )
                lhs = hermite_eval(m, c * x)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_coefficient_expectations():
    radem = GDistribution.rademacher()
    unif = GDistribution.uniform()
    gauss = GDistribution.gaussian()
    assert hermite_coeff_expectation(radem, 4) == -2.0
    assert hermite_coeff_expectation(radem, 3) == 0.0
    assert hermite_coeff_expectation(unif, 4) == pytest.approx(-1.2, abs=1e-15)
    assert hermite_coeff_expectation(gauss, 6) == 0.0
    assert hermite_coeff_expectation(gauss, 0) == 1.0
    # degrees 1 and 2 vanish for every admissible law (mean 0, variance 1)
    for dist in (radem, unif):
        assert hermite_coeff_expectation(dist, 1) == 0.0
        assert hermite_coeff_expectation(dist, 2) == pytest.approx(0.0, abs=1e-15)


def test_coefficient_expectation_matches_monte_carlo():
    rng = np.random.default_rng(7)
    for dist in (GDistribution.rademacher(), GDistribution.uniform()):
        g = dist.sample(400_000, rng)
        for m in (4, 6):
            vals = hermite_eval(m, g)
            se = vals.std(ddof=1) / np.sqrt(len(g))
            err = abs(vals.mean() - hermite_coeff_expectation(dist, m))
            if se == 0.0:  # h_m is constant on the support (Rademacher)
                assert err == 0.0
            else:
                assert err < 5 * se


def test_growth_bound():
    # |E[h_m(g)]| <= Lambda^m m! with Lambda = 1 (Rademacher), sqrt 3 (Uniform)
    for dist in (GDistribution.rademacher(), GDistribution.uniform()):
        for m in range(13):
            bound = dist.lambda_growth**m * math.factorial(m)
            assert abs(hermite_coeff_expectation(dist, m)) <= bound + 1e-9


def test_kappa4_consistency():
    # kappa4 equals E[h_4(g)] for unit-variance laws
    for dist in (GDistribution.rademacher(), GDistribution.uniform(), GDistribution.gaussian()):
        assert hermite_coeff_expectation(dist, 4) == pytest.approx(dist.kappa4, abs=1e-14)


def test_quadrature_moments():
    # quadrature rules integrate moments of their law exactly enough
    for dist in (GDistribution.rademacher(), GDistribution.uniform()):
        nodes, weights = dist.quadrature()
        assert weights.sum() == pytest.approx(1.0, abs=1e-13)
        assert (weights * nodes).sum() == pytest.approx(0.0, abs=1e-13)
        assert (weights * nodes**2).sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        GDistribution.gaussian().quadrature()
