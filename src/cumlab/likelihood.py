"""Likelihood-ratio quantities for the spiked cumulant test.

Everything norm-like lives in the natural-log domain end to end: the
replica-overlap function satisfies f(beta, 1)^n > 1e308 already at tiny n,
so the d-term sum

    ||L_{n,d}||^2 = sum_j C(d,j) 2^(-d) f(beta, 2j/d - 1)^n

is evaluated as a log-sum-exp.  The log binomial weights come from
`math.lgamma` and are rescaled to sum to 1, so the rounding of log d!
cancels.  Against a 40-digit reference at n = d and beta = 10, the log
norm is within 5e-13 relative at d = 1e3, 1.5e-10 at d = 1e5 and 1.4e-9
at d = 1e6 (where it is 3.4e-7); what is left is the rounding of log j!.

The replica-overlap function itself is

    f(beta, lam) = E_{g_u, g_v}[ pref * exp(-(1+beta)((1+beta)(g_u^2+g_v^2)
                    - 2 beta g_u g_v lam) / (2(1+beta)^2 - 2 beta^2 lam^2)
                    + (g_u^2+g_v^2)/2) ],
    pref = (1+beta)/sqrt((1+beta)^2 - beta^2 lam^2),

summed over the tensor product of a finite rule for g: the two atoms
+-1 of Rademacher g, exact, and the Gauss-Legendre rule `uniform_rule()`
for Uniform g.  For standard normal g it is exactly 1:
the whitened Gaussian model is the null.  The per-sample score
`loglik_terms` has a closed form for every law.
The critical ratio `gamma_beta` is log f(beta, 1) / log 2, a float.
"""

from __future__ import annotations

import math

import numpy as np

from . import _special
from .hermite import RADEMACHER, STANDARD_GAUSSIAN, GDistribution, uniform_rule


# Rademacher g's law, exactly: atoms +-1 with weight 1/2 each
_RADEMACHER_ATOMS = (np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


def _f_quadrature(beta: float, lam: np.ndarray, nodes, weights) -> np.ndarray:
    """f(beta, lam) of a 1-D lam by the tensor product of the rule (nodes, weights),
    over blocks of overlaps whose (block, nodes, nodes) arrays hold about 1 MB each."""
    a = 1.0 + beta
    gu, gv = nodes[:, None], nodes[None, :]
    sq, cross = gu * gu + gv * gv, 2.0 * beta * gu * gv
    w2 = weights[:, None] * weights[None, :]
    out = np.empty_like(lam)
    step = max(1, 2**17 // w2.size)
    for start in range(0, len(lam), step):
        lb = lam[start:start + step]
        dn = a * a - (beta * lb) ** 2
        expo = -a * (a * sq - cross * lb[:, None, None]) / (2.0 * dn[:, None, None]) + 0.5 * sq
        out[start:start + step] = a / np.sqrt(dn) * np.sum(w2 * np.exp(expo), axis=(1, 2))
    return out


def f_overlap(beta: float, lam, g_dist: GDistribution):
    """Replica-overlap function f(beta, lambda); lambda may be an array.

    Finite and positive on |lambda| <= 1; equals 1 at lambda = 0 and at
    beta = 0 for every admissible g, and everywhere for standard Gaussian
    g, whose model is the null.  Every other law is summed over the tensor
    product of its finite rule: Rademacher's two atoms, exact, and for
    Uniform `uniform_rule()`, the 64-node Gauss-Legendre rule on its support.
    """
    lam_arr = np.asarray(lam, dtype=np.float64)
    scalar = lam_arr.ndim == 0
    lam_arr = np.atleast_1d(lam_arr)
    if np.any(np.abs(lam_arr) > 1.0 + 1e-15):
        raise ValueError("overlap lambda must lie in [-1, 1]")
    if not np.isfinite(beta) or beta < 0:
        raise ValueError("beta must be finite and >= 0")
    lam_arr = np.clip(lam_arr, -1.0, 1.0)

    if g_dist.kind == STANDARD_GAUSSIAN:
        out = np.ones_like(lam_arr)
    else:
        rule = _RADEMACHER_ATOMS if g_dist.kind == RADEMACHER else uniform_rule()
        out = _f_quadrature(beta, lam_arr.ravel(), *rule).reshape(lam_arr.shape)
    return float(out[0]) if scalar else out


def overlap_law(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The law of the overlap lambda = <u, u'>/d of two independent spikes:
    its d + 1 values 2j/d - 1 and their log weights log(C(d, j) 2^-d)."""
    lam = 2.0 * np.arange(d + 1) / d - 1.0
    # log C(d, j) from the d + 1 values log j!: d! is too large an integer to build at d = 1e6
    lgam = np.array([math.lgamma(i + 1.0) for i in range(d + 1)])
    log_w = lgam[d] - lgam - lgam[::-1] - d * np.log(2.0)
    # the rounding of log d! shifts every weight alike; rescaled, they sum to 1
    log_w -= _special.logsumexp(log_w)
    return lam, log_w


def lr_norm_sq_log(n: int, d: int, beta: float, g_dist: GDistribution) -> float:
    """log ||L_{n,d}||^2 = log E_lambda[f(beta, lambda)^n], by log-sum-exp over `overlap_law`."""
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    lam, log_weights = overlap_law(d)
    return _special.logsumexp(log_weights + n * np.log(f_overlap(beta, lam, g_dist)))


def loglik_terms(proj, beta: float, g_dist: GDistribution) -> np.ndarray:
    """Per-sample conditional log-likelihood ratio from scaled projections.

    Implements log E_g sqrt(1+beta) exp(-(1+beta)/2 (g - t)^2 + g^2/2) with
    t = sqrt(beta/((1+beta) d)) x.u supplied as `proj` already scaled by
    the caller.  This is the only per-sample score: the exhaustive search,
    `sample_log_likelihood` and the detector all evaluate it.

    Rademacher g has the closed form 1/2 log(1+beta) + 1/2 - a(1+t^2)
    + log cosh(2at) with a = (1+beta)/2, evaluated stably (and exactly even
    in t) through x = |2at|.  Uniform g has the closed form
    1/2 log(pi(1+beta)/(6 beta)) + (1+beta)t^2/(2 beta) + log(Phi(h) - Phi(l))
    with h = sqrt(beta)(sqrt 3 - mu), l = -sqrt(beta)(sqrt 3 + mu) and
    mu = (1+beta)t/beta.  It is even in t and taken at |t|, where l <= 0,
    so the difference is log Phi(h) + log(1 - Phi(l)/Phi(h)), away from
    Phi's upper tail; at beta = 0 it is the limit
    log(sinh(sqrt(3) t)/(sqrt(3) t)) - t^2/2.  Standard Gaussian g gives
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
    u = np.abs(t)
    if beta == 0.0:
        s = math.sqrt(3.0) * u  # log(sinh(s)/s) = s + log((1 - exp(-2s))/(2s))
        with np.errstate(divide="ignore", invalid="ignore"):  # at s = 0, where 0 is kept
            return np.where(s > 0.0, s + np.log(-np.expm1(-2.0 * s) / (2.0 * s)) - 0.5 * u * u,
                            0.0)[()]
    edge, shift = math.sqrt(3.0 * beta), u * ((1.0 + beta) / math.sqrt(beta))  # sqrt(beta) mu
    log_h = _special.log_ndtr(edge - shift)
    # log(1 - Phi(l)/Phi(h)) through expm1, exact also as h - l = 2 sqrt(3 beta) -> 0
    log_diff = log_h + np.log(-np.expm1(_special.log_ndtr(-edge - shift) - log_h))
    const = 0.5 * math.log(math.pi * (1.0 + beta) / (6.0 * beta))
    return const + (1.0 + beta) / (2.0 * beta) * u * u + log_diff


def sample_log_likelihood(x: np.ndarray, u: np.ndarray, beta: float, g_dist: GDistribution) -> float:
    """Conditional per-sample log LR, log l(x|u); x may be (d,) or (n, d)."""
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    d = u.shape[0]
    # np.isclose(u @ u, d) without its array set-up; nan and inf are refused too
    if not abs(u @ u - d) <= 1e-8 + 1e-5 * abs(d):
        raise ValueError("spike must have norm sqrt(d)")
    scale = np.sqrt(beta / ((1.0 + beta) * d))
    terms = loglik_terms(scale * (x @ u), beta, g_dist)
    return float(np.sum(terms))


def gamma_beta(beta: float, g_dist: GDistribution) -> float:
    """Critical linear-regime ratio log f(beta,1) / log 2, or 0.

    For n > d/gamma_beta, that is n = d/gamma with gamma < gamma_beta, the
    LR norm is guaranteed to diverge: the overlap lambda = 1 alone adds
    2^-d f(beta, 1)^n to it, and there n log f(beta, 1) > d log 2.
    When f(beta, 1) <= 1 there is no such guarantee and 0 is returned, so
    gamma_beta > 0 exactly when divergence is guaranteed at some ratio.
    Boundedness for n < d/gamma_beta is conjectured in the source
    material, not proven; callers should report it, never assert it.
    ValueError where f(beta, 1) is not finite in floats, as from beta ~ 1e16.
    """
    with np.errstate(all="ignore"):  # a non-finite f is refused below
        f1 = f_overlap(beta, 1.0, g_dist)
    if not np.isfinite(f1):
        raise ValueError(f"f(beta, 1) of g = {g_dist.kind} is {f1} in floats at beta = {beta!r}")
    return float(np.log(f1) / np.log(2.0)) if f1 > 1.0 else 0.0
