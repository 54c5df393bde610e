"""Low-degree likelihood ratio machinery.

The degree-D projection of the likelihood ratio has squared norm

    ||L^{<=D}||^2 = sum_{|alpha| <= D} E_P[H_alpha(x)]^2 / alpha!

over multi-multi-indices alpha in N^{n x d}.  Conditionally on the spike,
E[H_alpha(x)|u] factorises through the coefficients

    T_{m,g} = (beta/(1+beta))^{m/2} E[h_m(g)],

which vanish for m = 2 and all odd m; averaging over the Rademacher spike
prior kills every alpha with an odd column sum.  This module provides

* the exact finite-sum lower and upper bounds on ||L^{<=D}||^2,
* their closed-form large-(n,d) asymptotics (clearly labelled),
* an exact small-instance norm by direct enumeration, and
* the spiked Wishart limit series, whose divergence point reproduces the
  BBP threshold beta_c = sqrt(gamma).

All norms are returned as natural logs of the squared norm, except the
Wishart limit which is the plain partial sum of the (unsquared) limit
series as printed in its source.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hermite import GDistribution, hermite_coeff_expectation
from .likelihood import log_binom

EXACT_ENUMERATION_BUDGET = 10_000_000


def t_coeff(m: int, beta: float, g_dist: GDistribution) -> float:
    """T_{m,g} = (beta/(1+beta))^{m/2} E[h_m(g)]; zero for m = 2 or m odd."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    if m == 0:
        return 1.0
    if m == 2 or m % 2 == 1:
        return 0.0
    return (beta / (1.0 + beta)) ** (m / 2.0) * hermite_coeff_expectation(g_dist, m)


def ldlr_lower_log(n: int, d: int, D: int, beta: float, kappa4: float) -> float:
    """Log of the finite-sum lower bound on ||L^{<=D}||^2.

    sum_{m=0}^{floor(D/4)} C(n,m) C(d+1,2)^m
        (beta^2 kappa4 / (sqrt(4!) d^2 (1+beta)^2))^{2m}

    The counted index set picks m distinct samples, so floor(D/4) <= n is
    required.
    """
    from scipy.special import logsumexp  # lazy: keeps scipy out of `import cumlab.cli`

    top = D // 4
    if top > n:
        raise ValueError(f"floor(D/4) = {top} exceeds n = {n}: index set needs distinct samples")
    if kappa4 == 0.0 or top == 0:
        return 0.0
    log_q2 = 2.0 * np.log(abs(beta * beta * kappa4) / (math.sqrt(24.0) * d * d * (1.0 + beta) ** 2))
    m = np.arange(top + 1)
    terms = log_binom(n, m) + m * np.log(d * (d + 1) / 2.0) + m * log_q2
    return float(logsumexp(terms))


def ldlr_upper_log(n: int, d: int, D: int, beta: float, g_dist: GDistribution) -> float:
    """Log of the finite-sum upper bound on ||L^{<=D}||^2.

    1 + sum_{m=1}^D (beta/(1+beta))^m C(floor(m/4) floor(m/2) + m - 1, m)
        / d^m * sup_{k<=m} |E[h_k(g)]|^{2m/k} * C(n, floor(m/4)) * C(d, floor(m/2))

    The sup ranges over k with nonzero coefficient; a degree m where every
    coefficient up to m vanishes contributes nothing.
    """
    from scipy.special import logsumexp

    if D < 0:
        raise ValueError("D must be >= 0")
    terms = [0.0]  # m

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
            m * np.log(beta / (1.0 + beta))
            + log_binom(m4 * m2 + m - 1, m)
            + m * sup_log
            - m * np.log(d)
            + log_binom(n, m4)
            + log_binom(d, m2)
        )
        terms.append(t)
    return float(logsumexp(np.array(terms)))


def ldlr_asymptotics(
    n: int, d: int, D: int, beta: float, kappa4: float, lambda_growth: float
) -> tuple[float, float]:
    """Closed-form asymptotic bracket (log lower, log upper).

    Lower: (1/floor(D/4) * (beta^2 kappa4/(1+beta)^2)^2 * n/d^2)^{floor(D/4)},
    valid for D >= 4.  Upper: 1 + sum_{m=1}^D (Lambda^2 beta/(1+beta))^m
    m^{4m} (n/d^2)^{m/4}.  Large-(n,d) regime forms only; the finite-sum
    bounds above are the quantitative ones.
    """
    from scipy.special import logsumexp

    top = D // 4
    if top < 1:
        raise ValueError("asymptotic lower form needs D >= 4")
    log_ratio = np.log(n) - 2.0 * np.log(d)
    if kappa4 == 0.0:
        lower = -np.inf
    else:
        lower = top * (
            2.0 * np.log(beta * beta * abs(kappa4) / (1.0 + beta) ** 2)
            + log_ratio
            - np.log(top)
        )
    m = np.arange(1, D + 1, dtype=np.float64)
    terms = m * np.log(lambda_growth**2 * beta / (1.0 + beta)) + 4.0 * m * np.log(m) + 0.25 * m * log_ratio
    upper = float(logsumexp(np.concatenate([[0.0], terms])))
    return float(lower), upper


def _even_compositions_budget(m: int, d: int) -> int:
    # weak compositions of m into d parts
    return math.comb(m + d - 1, d - 1)


def _nonzero_degree_tuples(n: int, D: int):
    """Ordered tuples (m_1, ..., m_k), each even >= 4, total <= D, k <= n."""
    degs = [m for m in range(4, D + 1, 2)]
    max_rows = min(n, D // 4)
    for k in range(max_rows + 1):
        for tup in itertools.product(degs, repeat=k):
            if sum(tup) <= D:
                yield tup


def ldlr_exact_small_log(
    n: int,
    d: int,
    D: int,
    beta: float,
    g_dist: GDistribution,
    budget: int = EXACT_ENUMERATION_BUDGET,
    spike_average: bool = False,
) -> float:
    """Exact log ||L^{<=D}||^2 by enumeration over multi-multi-indices.

    Rows with degree in {1, 2, 3} or odd degree are pruned outright (their
    T coefficient vanishes), so at most floor(D/4) rows are nonzero.  A
    contribution depends only on the multiset of nonzero rows, never on
    which samples host them, so placements enter as a C(n, k) factor and
    the enumeration cost is independent of n.  The spike prior average
    E_u[u^alpha] is the even-column parity rule by default;
    `spike_average=True` instead averages over all 2^d Rademacher spikes
    (d <= 16) as an independent cross-check.
    """
    if n < 1 or d < 1 or D < 0:
        raise ValueError("need n >= 1, d >= 1, D >= 0")
    if spike_average and d > 16:
        raise ValueError("exact 2^d spike average limited to d <= 16")

    count = 0
    for tup in _nonzero_degree_tuples(n, D):
        size = 1
        for m in tup:
            size *= _even_compositions_budget(m, d)
        count += size
    if count > budget:
        raise ValueError(
            f"exact enumeration would visit {count} multi-indices, over the budget of {budget}"
        )

    spikes = None
    if spike_average:
        spikes = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))

    comps_cache: dict[int, list[tuple[int, ...]]] = {}

    def comps(m: int) -> list[tuple[int, ...]]:
        if m not in comps_cache:
            comps_cache[m] = list(_compositions(m, d))
        return comps_cache[m]

    total = 0.0
    for tup in _nonzero_degree_tuples(n, D):
        k = len(tup)
        t_prod = 1.0
        for m in tup:
            t_prod *= t_coeff(m, beta, g_dist)
        if t_prod == 0.0 and k > 0:
            continue
        # ordered placements of the k distinguishable rows on n samples
        placements = math.perm(n, k) / math.factorial(k)
        deg_total = sum(tup)
        for combo in itertools.product(*(comps(m) for m in tup)):
            col = [0] * d
            for row in combo:
                for i in range(d):
                    col[i] += row[i]
            if spikes is None:
                if any(c % 2 for c in col):
                    continue
                e_u = 1.0
            else:
                e_u = float(np.mean(np.prod(spikes ** np.array(col), axis=1)))
                if e_u == 0.0:
                    continue
            fact = 1.0
            for row in combo:
                for e in row:
                    fact *= math.factorial(e)
            total += placements * (t_prod * e_u) ** 2 / (fact * float(d) ** deg_total)
    return float(np.log(total))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def ldlr_wishart_limit(D: int, beta: float, gamma: float) -> float:
    """Partial sum sum_{k=0}^D (2k-1)!!/(2k)!! beta^{2k}/gamma^k.

    Fixed-ratio (gamma = d/n) limit of the degree-D LDLR norm in the
    spiked Wishart model, as printed in its source; in the derivation the
    terms with 2k > D vanish, so the printed index range is equivalent to
    k <= floor(D/2) on the squared norm.  Bounded in D iff beta^2 < gamma
    (the BBP threshold beta_c = sqrt(gamma)).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if D < 0:
        raise ValueError("D must be >= 0")
    total = 1.0
    term = 1.0  # (2k-1)!!/(2k)!! beta^{2k}/gamma^k, built multiplicatively
    growth = beta * beta / gamma
    for k in range(1, D + 1):
        term *= (2 * k - 1) / (2 * k) * growth
        total += term
        if not np.isfinite(total):
            return float("inf")
    return total


@dataclass
class BoundReport:
    """Log-domain LDLR bracket at one (n, d, D, beta, g) point."""

    n: int
    d: int
    D: int
    beta: float
    g_kind: str
    log_lower: float
    log_upper: float
    log_exact: float | None = None
    asym_lower: float | None = None
    asym_upper: float | None = None

    CSV_HEADER = "n,d,D,beta,g,log_lower,log_upper,log_exact,asym_lower,asym_upper"

    def csv_row(self) -> str:
        def fmt(v):
            return "" if v is None else repr(float(v))

        return ",".join(
            [
                str(self.n),
                str(self.d),
                str(self.D),
                repr(float(self.beta)),
                self.g_kind,
                fmt(self.log_lower),
                fmt(self.log_upper),
                fmt(self.log_exact),
                fmt(self.asym_lower),
                fmt(self.asym_upper),
            ]
        )


def bound_report(
    n: int,
    d: int,
    D: int,
    beta: float,
    g_dist: GDistribution,
    exact_budget: int | None = None,
) -> BoundReport:
    """Evaluate the bracket at one grid point; exact norm only on request."""
    log_exact = None
    if exact_budget is not None:
        log_exact = ldlr_exact_small_log(n, d, D, beta, g_dist, budget=exact_budget)
    asym_lower = asym_upper = None
    if D >= 4:
        asym_lower, asym_upper = ldlr_asymptotics(
            n, d, D, beta, g_dist.kappa4, g_dist.lambda_growth
        )
    return BoundReport(
        n=n,
        d=d,
        D=D,
        beta=beta,
        g_kind=g_dist.kind,
        log_lower=ldlr_lower_log(n, d, D, beta, g_dist.kappa4),
        log_upper=ldlr_upper_log(n, d, D, beta, g_dist),
        log_exact=log_exact,
        asym_lower=asym_lower,
        asym_upper=asym_upper,
    )
