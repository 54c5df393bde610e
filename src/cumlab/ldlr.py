"""Low-degree likelihood ratio machinery.

The degree-D projection of the likelihood ratio has squared norm

    ||L^{<=D}||^2 = sum_{|alpha| <= D} E_P[H_alpha(x)]^2 / alpha!

over multi-multi-indices alpha in N^{n x d}.  Conditionally on the spike,
E[H_alpha(x)|u] factorises through the coefficients

    T_{m,g} = (beta/(1+beta))^{m/2} E[h_m(g)],

which vanish for m = 2 and all odd m; averaging over the Rademacher spike
prior kills every alpha with an odd column sum.  This module provides

* the finite-sum lower and upper bounds on ||L^{<=D}||^2,
* their closed-form large-(n,d) asymptotics (clearly labelled),
* the exact norm at every (n, d, D), as a series in the spike overlap, and
* `bound_report`, the {metric: value} dict of one `ldlr-bounds` grid point.

Each takes the latent law as a `GDistribution`, whose E[h_m(g)] overflows
a float (OverflowError) from m = 304 for Rademacher and Uniform g.  All
norms are returned as natural logs of the squared norm.  Every binomial
C(n, k) is the exact integer `math.comb(n, k)`, its log rounded once.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ._special import logsumexp
from .hermite import GDistribution, hermite_coeff_expectation
from .likelihood import overlap_law


def t_coeff(m: int, beta: float, g_dist: GDistribution) -> float:
    """T_{m,g} = (beta/(1+beta))^{m/2} E[h_m(g)]; the exact E[h_m(g)] makes it
    1 at m = 0 and 0 at m = 2 and at every odd m."""
    return hermite_coeff_expectation(g_dist, m) * (beta / (1.0 + beta)) ** (m / 2.0)


def _log_beta_sq(beta: float, kappa4: float, scale: float) -> float:
    """log(beta^2 |kappa4| / scale) for beta > 0.  Where beta * beta is
    subnormal or zero (beta below about 1.5e-154), log beta^2 is taken as
    2 log beta, so the log stays finite; every larger beta keeps the bits
    of the one-quotient form."""
    if beta * beta < sys.float_info.min:
        return 2.0 * np.log(beta) + np.log(abs(kappa4) / scale)
    return np.log(abs(beta * beta * kappa4) / scale)


def ldlr_lower_log(n: int, d: int, D: int, beta: float, g_dist: GDistribution) -> float:
    """Log of the finite-sum lower bound on ||L^{<=D}||^2.

    sum_{m=0}^{floor(D/4)} C(n,m) C(d+1,2)^m
        (beta^2 kappa4 / (sqrt(4!) d^2 (1+beta)^2))^{2m}

    The counted index set picks m distinct samples, so floor(D/4) <= n is
    required.  At kappa4 = 0 or beta = 0 only the m = 0 term, 1, is left.
    """
    top, kappa4 = D // 4, g_dist.kappa4
    if top > n:
        raise ValueError(f"floor(D/4) = {top} exceeds n = {n}: index set needs distinct samples")
    if kappa4 == 0.0 or beta == 0.0 or top == 0:
        return 0.0
    log_q2 = 2.0 * _log_beta_sq(beta, kappa4, math.sqrt(24.0) * d * d * (1.0 + beta) ** 2)
    m = np.arange(top + 1)
    log_comb = np.array([math.log(math.comb(n, k)) for k in range(top + 1)])
    terms = log_comb + m * np.log(d * (d + 1) / 2.0) + m * log_q2
    return logsumexp(terms)


def ldlr_upper_log(n: int, d: int, D: int, beta: float, g_dist: GDistribution) -> float:
    """Log of the finite-sum upper bound on ||L^{<=D}||^2.

    1 + sum_{m=1}^D (beta/(1+beta))^m C(floor(m/4) floor(m/2) + m - 1, m)
        / d^m * sup_{k<=m} |E[h_k(g)]|^{2m/k} * C(n, floor(m/4)) * C(d, floor(m/2))

    The sup ranges over k with nonzero coefficient; a degree m where every
    coefficient up to m vanishes contributes nothing.  It is a bound only
    for d >= floor(D/2): below, the factor C(d, floor(m/2)) is 0 for every
    m with floor(m/2) > d, so the sum leaves out degrees that the norm keeps.
    """
    if D < 0:
        raise ValueError("D must be >= 0")
    terms = [0.0]  # m = 0
    with np.errstate(divide="ignore"):  # beta = 0: every m >= 1 term is -inf and drops out
        log_b = np.log(beta / (1.0 + beta))
    sup_log = -np.inf  # running sup over k of (2/k) log |E[h_k(g)]|
    for m in range(1, D + 1):
        e = hermite_coeff_expectation(g_dist, m)
        if e != 0.0:
            sup_log = max(sup_log, (2.0 / m) * np.log(abs(e)))
        if sup_log == -np.inf:
            continue
        m4, m2 = m // 4, m // 2
        if m4 > n or m2 > d:
            continue
        t = (
            m * log_b
            + math.log(math.comb(m4 * m2 + m - 1, m))
            + m * sup_log
            - m * np.log(d)
            + math.log(math.comb(n, m4))
            + math.log(math.comb(d, m2))
        )
        terms.append(t)
    return logsumexp(np.array(terms))


def ldlr_asymptotics(n: int, d: int, D: int, beta: float,
                     g_dist: GDistribution) -> tuple[float, float]:
    """Closed-form asymptotic bracket (log lower, log upper).

    Lower: (1/floor(D/4) * (beta^2 kappa4/(1+beta)^2)^2 * n/d^2)^{floor(D/4)},
    valid for D >= 4.  Upper: 1 + sum_{m=1}^D (Lambda^2 beta/(1+beta))^m
    m^{4m} (n/d^2)^{m/4}, Lambda the law's `lambda_growth`.  Large-(n,d)
    regime forms only; the finite-sum bounds above are the quantitative ones.
    """
    top, kappa4 = D // 4, g_dist.kappa4
    if top < 1:
        raise ValueError("asymptotic lower form needs D >= 4")
    log_ratio = math.log(n) - 2.0 * np.log(d)  # math.log takes an n past the float range
    if kappa4 == 0.0 or beta == 0.0:
        lower = -np.inf
    else:
        lower = top * (
            2.0 * _log_beta_sq(beta, kappa4, (1.0 + beta) ** 2)
            + log_ratio
            - np.log(top)
        )
    m = np.arange(1, D + 1, dtype=np.float64)
    with np.errstate(divide="ignore"):  # beta = 0: every term is -inf and drops out
        log_b = np.log(g_dist.lambda_growth**2 * beta / (1.0 + beta))
    terms = m * log_b + 4.0 * m * np.log(m) + 0.25 * m * log_ratio
    upper = logsumexp(np.concatenate([[0.0], terms]))
    return float(lower), upper


def ldlr_norm_log(n: int, d: int, D: int, beta: float, g_dist: GDistribution) -> float:
    """Exact log ||L^{<=D}||^2, by the overlap series.

    With lambda = <u, u'>/d the overlap of two independent spikes and
    f(lambda) = sum_m a_m lambda^m, a_m = T_m^2/m!, the overlap function of
    `likelihood.f_overlap`, the degree-D norm is the degree-D truncation in
    powers of lambda of E_lambda[f(lambda)^n], the full norm of
    `likelihood.lr_norm_sq_log`.  As f - 1 starts at lambda^4,

        ||L^{<=D}||^2 = sum_{k <= min(floor(D/4), n)} C(n, k)
                        sum_{M <= D} [(f - 1)^k]_M E[lambda^M],

    with [(f - 1)^k]_M a k-fold convolution of the a_m and E[lambda^M] from
    the weights of `likelihood.overlap_law`.  Only even m and M enter, so
    every term is nonnegative and the log-sum-exp cancels nothing.
    """
    if n < 0 or d < 1 or D < 0:
        raise ValueError("need n >= 0, d >= 1 and D >= 0")
    log_a = np.full(D + 1, -np.inf)
    for m in range(4, D + 1, 2):
        t = t_coeff(m, beta, g_dist)
        if t != 0.0:
            log_a[m] = 2.0 * math.log(abs(t)) - math.lgamma(m + 1.0)
    top = min(D // 4, n)
    if top == 0 or np.all(log_a == -np.inf):  # D < 4, beta = 0 or Gaussian g: the norm is 1
        return 0.0
    lam, log_weights = overlap_law(d)
    with np.errstate(divide="ignore"):  # lambda = 0 adds nothing to a moment of order M > 0
        log_abs = np.log(np.abs(lam))
    log_moment = np.full(D + 1, -np.inf)  # log E[lambda^M]; odd moments vanish
    for M in range(4, D + 1, 2):
        log_moment[M] = logsumexp(log_weights + M * log_abs)
    # power holds the log coefficients of (f - 1)^k, -inf for a zero one
    terms, power = [0.0], np.where(np.arange(D + 1) == 0, 0.0, -np.inf)
    for k in range(1, top + 1):
        power = np.array([logsumexp(power[: M + 1] + log_a[M::-1]) for M in range(D + 1)])
        terms.append(math.log(math.comb(n, k)) + logsumexp(power + log_moment))
    return logsumexp(np.array(terms))


def bound_report(n: int, d: int, D: int, beta: float, g_dist: GDistribution) -> dict[str, float]:
    """The LDLR metrics at one grid point, as {metric: value}.

    `log_lower` and `log_exact` always; `log_upper` where d >= floor(D/2),
    the domain of `ldlr_upper_log`; `asym_lower` and `asym_upper` for
    D >= 4, where the asymptotic lower form is defined.  A metric undefined
    at the point is left out.
    """
    metrics = {"log_lower": ldlr_lower_log(n, d, D, beta, g_dist)}
    if d >= D // 2:
        metrics["log_upper"] = ldlr_upper_log(n, d, D, beta, g_dist)
    metrics["log_exact"] = ldlr_norm_log(n, d, D, beta, g_dist)
    if D >= 4:
        metrics["asym_lower"], metrics["asym_upper"] = ldlr_asymptotics(n, d, D, beta, g_dist)
    return metrics
