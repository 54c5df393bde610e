"""Likelihood-ratio quantities for the spiked cumulant test.

Everything norm-like lives in the natural-log domain end to end: the
replica-overlap function satisfies f(beta, 1)^n > 1e308 already at tiny n,
so the d-term sum

    ||L_{n,d}||^2 = sum_j C(d,j) 2^(-d) f(beta, 2j/d - 1)^n

is evaluated as a log-sum-exp with log-gamma binomial weights (exact
enough out to d = 1e4 and n = 1e9, since n enters only multiplicatively).

The replica-overlap function itself is

    f(beta, lam) = E_{g_u, g_v}[ pref * exp(-(1+beta)((1+beta)(g_u^2+g_v^2)
                    - 2 beta g_u g_v lam) / (2(1+beta)^2 - 2 beta^2 lam^2)
                    + (g_u^2+g_v^2)/2) ],
    pref = (1+beta)/sqrt((1+beta)^2 - beta^2 lam^2),

reduced to a two-term sum for Rademacher g (only the product g_u g_v
enters), a tensor-product Gauss-Legendre rule for Uniform g, and the exact
bivariate Gaussian integral for standard normal g (which collapses to 1:
the whitened Gaussian model is the null).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .hermite import RADEMACHER, STANDARD_GAUSSIAN, UNIFORM, GDistribution

_UNIFORM_QUAD_ORDER = 64


def log_binom(n, k) -> np.ndarray:
    """log C(n, k) via log-gamma; reaches d = 1e4 without factorial tables."""
    from scipy.special import gammaln  # lazy: only LR norms and LDLR bounds use it

    n = np.asarray(n, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def _f_quadrature(beta: float, lam: np.ndarray, nodes, weights) -> np.ndarray:
    a = 1.0 + beta
    dn = a * a - (beta * lam) ** 2
    pref = a / np.sqrt(dn)
    gu = nodes[:, None]
    gv = nodes[None, :]
    w2 = weights[:, None] * weights[None, :]
    lam = lam[..., None, None]
    dn = dn[..., None, None]
    expo = (
        -a * (a * (gu * gu + gv * gv) - 2.0 * beta * gu * gv * lam) / (2.0 * dn)
        + 0.5 * (gu * gu + gv * gv)
    )
    return pref * np.sum(w2 * np.exp(expo), axis=(-2, -1))


def f_overlap(beta: float, lam, g_dist: GDistribution, quad_order: int = _UNIFORM_QUAD_ORDER):
    """Replica-overlap function f(beta, lambda); lambda may be an array.

    Finite and positive on |lambda| <= 1; equals 1 at lambda = 0 and at
    beta = 0 for every admissible g.
    """
    lam_arr = np.asarray(lam, dtype=np.float64)
    scalar = lam_arr.ndim == 0
    lam_arr = np.atleast_1d(lam_arr)
    if np.any(np.abs(lam_arr) > 1.0 + 1e-15):
        raise ValueError("overlap lambda must lie in [-1, 1]")
    if not np.isfinite(beta) or beta < 0:
        raise ValueError("beta must be finite and >= 0")
    lam_arr = np.clip(lam_arr, -1.0, 1.0)

    a = 1.0 + beta
    if g_dist.kind == RADEMACHER:
        # g_u^2 = g_v^2 = 1; only s = g_u g_v = +-1 enters, each with prob 1/2
        dn = a * a - (beta * lam_arr) ** 2
        pref = a / np.sqrt(dn)
        out = np.zeros_like(lam_arr)
        for s in (1.0, -1.0):
            out += 0.5 * pref * np.exp(-a * (2.0 * a - 2.0 * beta * s * lam_arr) / (2.0 * dn) + 1.0)
    elif g_dist.kind == UNIFORM:
        nodes, weights = g_dist.quadrature(quad_order)
        out = _f_quadrature(beta, lam_arr, nodes, weights)
    elif g_dist.kind == STANDARD_GAUSSIAN:
        # exact bivariate Gaussian integral: with p = beta^2 lam^2 / dn and
        # q = (1+beta) beta lam / dn the integral is 1/sqrt((1+p)^2 - q^2),
        # and (1+p)^2 - q^2 = (1+beta)^2 / dn cancels the prefactor exactly.
        dn = a * a - (beta * lam_arr) ** 2
        p = (beta * lam_arr) ** 2 / dn
        q = a * beta * lam_arr / dn
        out = (a / np.sqrt(dn)) / np.sqrt((1.0 + p) ** 2 - q * q)
    else:
        raise ValueError(f"unknown g distribution kind {g_dist.kind!r}")
    return float(out[0]) if scalar else out


def lr_norm_sq_log(n: int, d: int, beta: float, g_dist: GDistribution) -> float:
    """log ||L_{n,d}||^2 by log-sum-exp over the exact overlap sum."""
    from scipy.special import logsumexp

    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    j = np.arange(d + 1)
    lam = 2.0 * j / d - 1.0
    logf = np.log(f_overlap(beta, lam, g_dist))
    terms = log_binom(d, j) - d * np.log(2.0) + n * logf
    return float(logsumexp(terms))


def loglik_terms(proj, beta: float, g_dist: GDistribution) -> np.ndarray:
    """Per-sample conditional log-likelihood ratio from scaled projections.

    Implements log E_g sqrt(1+beta) exp(-(1+beta)/2 (g - t)^2 + g^2/2) with
    t = sqrt(beta/((1+beta) d)) x.u supplied as `proj` already scaled by
    the caller.  This is the only per-sample score: the exhaustive search,
    `sample_log_likelihood` and the detector all evaluate it.

    Rademacher g has the closed form 1/2 log(1+beta) + 1/2 - a(1+t^2)
    + log cosh(2at) with a = (1+beta)/2, evaluated stably (and exactly even
    in t) through x = |2at|.  Uniform g uses the 64-node Gauss-Legendre
    rule with a max-shifted log-sum-exp.  Standard Gaussian g gives
    identically zero.
    """
    t = np.asarray(proj, dtype=np.float64)
    if g_dist.kind == STANDARD_GAUSSIAN:
        # E_g integrates to 1/sqrt(1+beta) exactly, cancelling the prefactor
        return np.zeros_like(t)
    a = 0.5 * (1.0 + beta)
    if g_dist.kind == RADEMACHER:
        # const + x - x * x / (4a) + log1p(exp(-2x)), op for op, in three
        # buffers; `t` is never written
        const = 0.5 * np.log1p(beta) + 0.5 - a - np.log(2.0)
        x = np.multiply(t, 2.0 * a, out=np.empty_like(t))
        np.abs(x, out=x)
        sq = np.multiply(x, x, out=np.empty_like(t))
        sq /= 4.0 * a
        soft = np.multiply(x, -2.0, out=np.empty_like(t))
        np.exp(soft, out=soft)
        np.log1p(soft, out=soft)
        x += const
        x -= sq
        x += soft
        return x if x.ndim else x[()]
    nodes, weights = g_dist.quadrature()
    E = np.log(weights) - a * (nodes - t[..., None]) ** 2 + 0.5 * nodes**2
    mx = E.max(axis=-1)
    return 0.5 * np.log1p(beta) + mx + np.log(np.exp(E - mx[..., None]).sum(axis=-1))


def sample_log_likelihood(x: np.ndarray, u: np.ndarray, beta: float, g_dist: GDistribution) -> float:
    """Conditional per-sample log LR, log l(x|u); x may be (d,) or (n, d)."""
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    d = u.shape[0]
    if not np.isclose(u @ u, d):
        raise ValueError("spike must have norm sqrt(d)")
    scale = np.sqrt(beta / ((1.0 + beta) * d))
    terms = loglik_terms(scale * (x @ u), beta, g_dist)
    return float(np.sum(terms))


class GammaBeta(NamedTuple):
    gamma: float
    divergence_guaranteed: bool


def gamma_beta(beta: float, g_dist: GDistribution) -> GammaBeta:
    """Critical linear-regime sample ratio log f(beta,1) / log 2.

    For n = d/gamma with gamma > gamma_beta the LR norm is guaranteed to
    diverge.  When f(beta, 1) <= 1 there is no such guarantee and (0,
    False) is returned.  Boundedness below gamma_beta is conjectured in the
    source material, not proven; callers should report it, never assert it.
    """
    f1 = f_overlap(beta, 1.0, g_dist)
    if f1 <= 1.0:
        return GammaBeta(0.0, False)
    return GammaBeta(float(np.log(f1) / np.log(2.0)), True)
