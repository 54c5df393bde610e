"""Replica-overlap function, LR norm, conditional log-likelihood, gamma_beta."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.special import logsumexp

from cumlab import datagen, likelihood
from cumlab.likelihood import (
    f_overlap,
    gamma_beta,
    loglik_terms,
    lr_norm_sq_log,
    sample_log_likelihood,
)
from oracles import GAUSS, RADEM, UNIF, traced_peak, uniform_score_quadrature, uniform_score_rule


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


def test_gaussian_law_is_exactly_the_null():
    # f is exactly 1, so gamma_beta never claims divergence for the null
    # model and the LR norm does not move with n
    betas = list(np.round(np.arange(0.0, 100.0 + 1e-9, 0.05), 2)) + [1e3, 1e4]
    assert 0.55 in betas
    lam = np.linspace(-1.0, 1.0, 65)
    for beta in betas:
        assert np.all(f_overlap(beta, lam, GAUSS) == 1.0), beta
        assert f_overlap(beta, 1.0, GAUSS) == 1.0
        assert gamma_beta(beta, GAUSS) == 0.0, beta
    for d in (64, 1024):
        logs = {lr_norm_sq_log(n, d, beta, GAUSS) for n in (1, 10**3, 10**9)
                for beta in (0.55, 2.0, 100.0)}
        assert len(logs) == 1 and abs(logs.pop()) < 1e-12, d


def test_f_uniform_quadrature_converged():
    # f_overlap's 64-node rule against a 256-node rule on the same support
    lam = np.linspace(-1, 1, 9)
    x, w = np.polynomial.legendre.leggauss(256)
    fine = likelihood._f_quadrature(10.0, lam, np.sqrt(3.0) * x, w / 2.0)
    np.testing.assert_allclose(f_overlap(10.0, lam, UNIF), fine, rtol=1e-12)


def test_f_uniform_memory_does_not_grow_with_overlaps():
    # the rule is summed over blocks of overlaps, never one (d + 1, 64, 64) array
    lam = 2.0 * np.arange(4097) / 4096 - 1.0
    f_overlap(10.0, lam, UNIF)  # the rule is built outside the traced call
    peak = traced_peak(lambda: f_overlap(10.0, lam, UNIF))
    assert peak < 8 * 2**20, peak


def test_uniform_rule_is_built_once(monkeypatch):
    # f's rule is built on first use only; the per-sample score needs none
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda deg: calls.append(deg) or leggauss(deg))
    for _ in range(3):
        f_overlap(10.0, np.linspace(-1, 1, 5), UNIF)
        loglik_terms(np.linspace(-2, 2, 7), 10.0, UNIF)
    assert len(calls) <= 1


def test_f_domain_error():
    with pytest.raises(ValueError):
        f_overlap(1.0, 1.5, RADEM)
    with pytest.raises(ValueError):
        f_overlap(-0.5, 0.5, RADEM)


def test_lr_norm_refuses_bad_sizes():
    for n, d in ((-1, 7), (3, 0)):
        with pytest.raises(ValueError, match="need n >= 0 and d >= 1"):
            lr_norm_sq_log(n, d, 10.0, RADEM)


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


def lr_norm_decimal(n, d, beta, g_dist):
    """log sum_j C(d, j) 2^-d f(beta, 2j/d - 1)^n at 40 digits, from the exact integer
    binomials and the code's own f."""
    f = f_overlap(beta, 2.0 * np.arange(d + 1) / d - 1.0, g_dist)
    with localcontext() as ctx:
        ctx.prec = 40
        total = sum(Decimal(math.comb(d, j)) * Decimal(float(fj)) ** n for j, fj in enumerate(f))
        return float((total / Decimal(2) ** d).ln())


def test_lr_norm_matches_a_40_digit_reference():
    # the norm's excess over 1 is small at n = d, so weights that do not sum
    # to 1 within rounding miss it by far more than the bound
    for g_dist in (RADEM, UNIF):
        for d in (1000, 4096):
            want = lr_norm_decimal(d, d, 10.0, g_dist)
            assert lr_norm_sq_log(d, d, 10.0, g_dist) == pytest.approx(want, rel=1e-10), d


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


@pytest.mark.parametrize("norm2", [8.0, 8.0 * (1 + 5e-6), 8.0 * (1 - 5e-6), 8.0 * (1 + 2e-5),
                                   8.0 * (1 - 2e-5), 0.0, np.nan, np.inf])
def test_sample_log_likelihood_refuses_what_isclose_refuses(norm2):
    # the spike check accepts exactly the norms np.isclose(u @ u, d) accepts
    u = np.full(8, np.sqrt(norm2 / 8))
    if np.isclose(u @ u, 8):
        assert np.isfinite(sample_log_likelihood(np.ones(8), u, 1.0, RADEM))
    else:
        with pytest.raises(ValueError, match="norm sqrt"):
            sample_log_likelihood(np.ones(8), u, 1.0, RADEM)


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


@pytest.mark.parametrize("beta", [0.0, 0.5, 10.0, 100.0])
def test_loglik_terms_uniform_matches_quadrature_oracle(beta):
    # the closed form against adaptive quadrature of the defining integral;
    # beta = 0 takes the sinh limit
    t = np.linspace(-3.0, 3.0, 241)
    want = np.array([uniform_score_quadrature(x, beta) for x in t])
    assert np.max(np.abs(loglik_terms(t, beta, UNIF) - want)) < 1e-13


@pytest.mark.parametrize("beta, bound", [(0.5, 1e-13), (10.0, 1e-13), (100.0, 1e-11)])
def test_loglik_terms_uniform_matches_the_64_node_rule(beta, bound):
    # the rule the closed form replaced; at beta = 100 the integrand's peak,
    # of width 0.1, is under-resolved by 64 nodes on the support
    t = np.linspace(-3.0, 3.0, 6001)
    assert np.max(np.abs(loglik_terms(t, beta, UNIF) - uniform_score_rule(t, beta))) < bound


def test_loglik_terms_uniform_is_even_and_finite():
    t = np.concatenate([[0.0, 1e-300], np.geomspace(1e-8, 1e6, 200)])
    for beta in (0.0, 1e-6, 0.5, 10.0, 1e4):
        got = loglik_terms(t, beta, UNIF)
        assert np.all(np.isfinite(got)), beta
        np.testing.assert_array_equal(loglik_terms(-t, beta, UNIF), got)
    assert loglik_terms(0.0, 0.0, UNIF) == 0.0
    assert isinstance(loglik_terms(0.3, 10.0, UNIF), np.float64)


def test_gamma_beta_properties():
    # 0 where divergence is not guaranteed (f(beta, 1) <= 1), > 0 where it is
    assert gamma_beta(0.0, RADEM) == 0.0
    assert gamma_beta(5.0, GAUSS) == 0.0
    grid = np.linspace(0.5, 50.0, 40)
    vals = [gamma_beta(b, RADEM) for b in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))  # monotone increasing
    assert all(v > 0 for v in vals)


def test_gamma_beta_refuses_a_non_finite_f():
    # at beta 1e16, (1+beta)^2 - beta^2 cancels to 0 and f(beta, 1) is nan,
    # which once read as gamma_beta 0.0, "no divergence"; the refusal is silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in (RADEM, UNIF):
            with pytest.raises(ValueError, match=f"f\\(beta, 1\\) of g = {g.kind} is nan"):
                gamma_beta(1e16, g)
        assert gamma_beta(1e16, GAUSS) == 0.0


def test_gamma_beta_calibration_bracket():
    # the beta solving gamma_beta = 1 sits near 10.78
    assert gamma_beta(10.2, RADEM) < 1.0 < gamma_beta(11.2, RADEM)
