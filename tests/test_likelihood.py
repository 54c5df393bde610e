"""Replica-overlap function, LR norm, conditional log-likelihood, gamma_beta."""

import numpy as np
import pytest
from scipy.special import logsumexp

from cumlab import datagen
from cumlab.hermite import GDistribution
from cumlab.likelihood import (
    f_overlap,
    gamma_beta,
    loglik_terms,
    lr_norm_sq_log,
    sample_log_likelihood,
)

RADEM = GDistribution.rademacher()
UNIF = GDistribution.uniform()
GAUSS = GDistribution.gaussian()


def f_rademacher_oracle(beta, lam):
    """Explicit four-term enumeration of the replica average."""
    a = 1.0 + beta
    dn = a * a - (beta * lam) ** 2
    total = 0.0
    for gu in (-1.0, 1.0):
        for gv in (-1.0, 1.0):
            pref = a / np.sqrt(dn)
            expo = (
                -a * (a * (gu * gu + gv * gv) - 2.0 * beta * gu * gv * lam) / (2.0 * dn)
                + 0.5 * (gu * gu + gv * gv)
            )
            total += 0.25 * pref * np.exp(expo)
    return total


def test_f_at_lambda_zero_is_one():
    for dist in (RADEM, UNIF, GAUSS):
        for beta in (0.0, 0.5, 10.0, 80.0):
            assert f_overlap(beta, 0.0, dist) == pytest.approx(1.0, abs=1e-12)


def test_f_at_beta_zero_is_one():
    for dist in (RADEM, UNIF, GAUSS):
        for lam in (-1.0, -0.4, 0.3, 1.0):
            assert f_overlap(0.0, lam, dist) == pytest.approx(1.0, abs=1e-12)


def test_f_even_in_lambda():
    lam = np.linspace(0.0, 1.0, 11)
    for dist in (RADEM, UNIF):
        np.testing.assert_allclose(
            f_overlap(7.0, lam, dist), f_overlap(7.0, -lam, dist), rtol=1e-13
        )


def test_f_rademacher_matches_enumeration_oracle():
    for beta in (0.1, 1.0, 10.0, 42.0):
        for lam in (-1.0, -0.6, 0.0, 0.25, 0.99, 1.0):
            assert f_overlap(beta, lam, RADEM) == pytest.approx(
                f_rademacher_oracle(beta, lam), rel=1e-13
            )


def test_f_gaussian_is_identically_one():
    lam = np.linspace(-1, 1, 21)
    np.testing.assert_allclose(f_overlap(25.0, lam, GAUSS), 1.0, atol=1e-12)


def test_f_uniform_quadrature_converged():
    lam = np.linspace(-1, 1, 9)
    coarse = f_overlap(10.0, lam, UNIF, quad_order=64)
    fine = f_overlap(10.0, lam, UNIF, quad_order=256)
    np.testing.assert_allclose(coarse, fine, rtol=1e-12)


def test_f_domain_error():
    with pytest.raises(ValueError):
        f_overlap(1.0, 1.5, RADEM)
    with pytest.raises(ValueError):
        f_overlap(-0.5, 0.5, RADEM)


def test_lr_norm_trivial_cases():
    assert lr_norm_sq_log(0, 7, 10.0, RADEM) == pytest.approx(0.0, abs=1e-12)
    # d = 1: two-term instance
    beta, n = 10.0, 3
    expected = np.log(
        0.5 * f_overlap(beta, 1.0, RADEM) ** n + 0.5 * f_overlap(beta, -1.0, RADEM) ** n
    )
    assert lr_norm_sq_log(n, 1, beta, RADEM) == pytest.approx(expected, rel=1e-13)


def test_lr_norm_brute_force_sandwich():
    # direct sum without log-sum-exp, small enough not to overflow
    from math import comb

    for d in (2, 5, 12):
        for n in (1, 7, 20):
            for beta in (0.5, 3.0):
                direct = sum(
                    comb(d, j) * 0.5**d * f_overlap(beta, 2 * j / d - 1, RADEM) ** n
                    for j in range(d + 1)
                )
                assert lr_norm_sq_log(n, d, beta, RADEM) == pytest.approx(
                    np.log(direct), abs=1e-9
                )


def test_lr_norm_replica_monte_carlo():
    # ||L||^2 = E_{u,v}[f(beta, u.v/d)^n] over independent spike pairs
    d, n, beta = 16, 8, 8.0
    rng = np.random.default_rng(42)
    pairs = 100_000
    lam = rng.choice([-1.0, 1.0], size=(pairs, d)).sum(axis=1) / d  # u.v in law
    vals = f_overlap(beta, lam, RADEM) ** n
    est, se = vals.mean(), vals.std(ddof=1) / np.sqrt(pairs)
    exact = np.exp(lr_norm_sq_log(n, d, beta, RADEM))
    assert abs(est - exact) < 4 * se


def test_lr_norm_dichotomy_small():
    beta = 10.0
    bounded = [lr_norm_sq_log(int(np.ceil(d**0.8)), d, beta, RADEM) for d in (64, 256, 1024)]
    divergent = [lr_norm_sq_log(int(np.ceil(d**1.2)), d, beta, RADEM) for d in (64, 256, 1024)]
    assert max(bounded) < 1.0
    assert all(b > a * 2 for a, b in zip(divergent, divergent[1:]))


def test_sample_log_likelihood_zero_signal():
    rng = np.random.default_rng(0)
    u = datagen.draw_spike(6, rng)
    for dist in (RADEM, UNIF, GAUSS):
        for _ in range(5):
            x = rng.standard_normal(6)
            assert sample_log_likelihood(x, u, 0.0, dist) == pytest.approx(0.0, abs=1e-12)


def test_sample_log_likelihood_sign_symmetry():
    rng = np.random.default_rng(1)
    u = datagen.draw_spike(10, rng)
    x = rng.standard_normal(10)
    for dist in (RADEM, UNIF):
        assert sample_log_likelihood(x, u, 10.0, dist) == pytest.approx(
            sample_log_likelihood(x, -u, 10.0, dist), rel=1e-13
        )


def test_sample_log_likelihood_rademacher_exact_sum():
    rng = np.random.default_rng(2)
    d, beta = 8, 10.0
    u = datagen.draw_spike(d, rng)
    x = rng.standard_normal(d)
    t = np.sqrt(beta / ((1 + beta) * d)) * (x @ u)
    terms = [
        np.log(0.5) + 0.5 * np.log(1 + beta) - (1 + beta) / 2 * (g - t) ** 2 + g * g / 2
        for g in (-1.0, 1.0)
    ]
    assert sample_log_likelihood(x, u, beta, RADEM) == pytest.approx(
        logsumexp(terms), rel=1e-13
    )


def test_sample_log_likelihood_uniform_trapezoid_oracle():
    # dense trapezoid over the compact support, independent of the
    # Gauss-Legendre production path
    rng = np.random.default_rng(3)
    d, beta = 6, 10.0
    u = datagen.draw_spike(d, rng)
    s = np.sqrt(3.0)
    g = np.linspace(-s, s, 100_001)
    for _ in range(3):
        x = rng.standard_normal(d)
        t = np.sqrt(beta / ((1 + beta) * d)) * (x @ u)
        integrand = np.sqrt(1 + beta) * np.exp(-(1 + beta) / 2 * (g - t) ** 2 + g * g / 2)
        oracle = np.log(np.trapezoid(integrand / (2 * s), g))
        assert sample_log_likelihood(x, u, beta, UNIF) == pytest.approx(oracle, abs=1e-8)


def test_sample_log_likelihood_batched():
    rng = np.random.default_rng(4)
    u = datagen.draw_spike(5, rng)
    X = rng.standard_normal((7, 5))
    total = sample_log_likelihood(X, u, 3.0, RADEM)
    assert total == pytest.approx(
        sum(sample_log_likelihood(x, u, 3.0, RADEM) for x in X), rel=1e-12
    )


def test_loglik_terms_rademacher_closed_form_is_stable():
    # the closed form against the two-atom log-sum-exp it replaces, from
    # t = 0 out to projections where exp(-a(1 + |t|)^2) underflows
    t_pos = np.array([0.0, 1e-8, 0.3, 5.0, 40.0, 1e3])
    t = np.concatenate([t_pos, -t_pos[1:]])
    for beta in (0.5, 10.0, 100.0):
        a = 0.5 * (1.0 + beta)
        got = loglik_terms(t, beta, RADEM)
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(loglik_terms(-t, beta, RADEM), got)
        ref = 0.5 * np.log1p(beta) + np.logaddexp(
            np.log(0.5) - a * (1.0 - t) ** 2 + 0.5,
            np.log(0.5) - a * (1.0 + t) ** 2 + 0.5,
        )
        finite = np.isfinite(ref)
        assert got[finite] == pytest.approx(ref[finite], rel=1e-12)


def test_gamma_beta_properties():
    zero = gamma_beta(0.0, RADEM)
    assert zero.gamma == 0.0 and not zero.divergence_guaranteed
    gauss = gamma_beta(5.0, GAUSS)
    assert gauss.gamma == 0.0 and not gauss.divergence_guaranteed
    grid = np.linspace(0.5, 50.0, 40)
    vals = [gamma_beta(b, RADEM).gamma for b in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))  # monotone increasing
    assert all(gamma_beta(b, RADEM).divergence_guaranteed for b in grid)


def test_gamma_beta_calibration_bracket():
    # the beta solving gamma_beta = 1 sits near 10.78
    assert gamma_beta(10.2, RADEM).gamma < 1.0 < gamma_beta(11.2, RADEM).gamma
