"""Reference computations and the harness that only the tests use.

Each reference computes, by a slower or more explicit route, a quantity
that cumlab obtains another way, so that a test can compare the two.  The
harness gives every test one way to build a latent law (`RADEM`, `UNIF`,
`GAUSS`, `LAWS`), to run a config through the CLI (`run_config`) and to
measure a working set (`traced_peak`).
"""

import io
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from math import erf

import numpy as np

from cumlab import _special, cli, datagen
from cumlab.cumtensor import FourthCumulant
from cumlab.hermite import (G_KINDS, RADEMACHER, STANDARD_GAUSSIAN, UNIFORM, GDistribution,
                            uniform_rule)
from cumlab.ldlr import t_coeff
from cumlab.rng import generator

RADEM, UNIF, GAUSS = map(GDistribution, G_KINDS)
LAWS = {g.kind: g for g in (RADEM, UNIF, GAUSS)}


def write_config(out, payload, config=None) -> str:
    """Write `payload` as JSON to `config`, by default `out` + ".json", beside
    the out directory and never inside it; return the config's path."""
    config = str(config or f"{out}.json")
    with open(config, "w") as fh:
        json.dump(payload, fh)
    return config


def run_config(out, payload, *flags, experiment=None, config=None):
    """Run the subcommand `experiment` (the payload's own by default) on
    `payload`, written by `write_config`, into `out` with any further
    `flags`; return the exit code and `out` as a string."""
    out = str(out)
    argv = [experiment or payload["experiment"], "--config", write_config(out, payload, config),
            "--out", out, *flags]
    return cli.main(argv), out


def traced_peak(call) -> int:
    """Peak bytes allocated through Python while `call()` runs; tracing
    stops even when the call raises."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def whitening_matrix(u: np.ndarray, beta: float) -> np.ndarray:
    """S = 1 - beta/(1+beta+sqrt(1+beta)) u u^T / d.

    Symmetric positive definite with S (1 + beta u u^T / d) S = 1; the
    eigenvalue along u is 1/sqrt(1+beta), all others are 1.  The
    spiked-cumulant sampler applies S through a closed form instead.
    """
    if not np.isfinite(beta) or beta < 0:
        raise ValueError("beta must be finite and >= 0")
    u = np.asarray(u, dtype=np.float64)
    d = u.shape[0]
    if not np.isclose(u @ u, d):
        raise ValueError("spike must have norm sqrt(d)")
    coef = beta / (1.0 + beta + np.sqrt(1.0 + beta))
    return np.eye(d) - coef * np.outer(u, u) / d


def sample_class_whole_array(spec, n: int, seed: int) -> np.ndarray:
    """The rows of `datagen.sample_class`, each sampler block made by
    whole-array expressions: the field transform as one product of a fresh
    (rows, d) normal array with the Cholesky factor, and the spike term as one
    `np.outer` rank-1 add.  The sampler applies both a row block at a time,
    into its output."""
    sampler, blocks = datagen._Sampler(spec), []
    for b, start in enumerate(range(0, n, datagen._BLOCK_ROWS)):
        rows, rng = min(datagen._BLOCK_ROWS, n - start), generator(seed, "block", b)
        if spec.kind in (datagen.NLGP, datagen.GP_MATCH):
            x = rng.standard_normal((rows, spec.d)) @ sampler.chol.T
            if spec.kind == datagen.NLGP:
                x *= spec.gain
                _special.erf(x)
                x /= sampler.znorm
        else:
            x = rng.standard_normal((rows, spec.d))
        if spec.kind == datagen.SPIKED_WISHART:
            x += np.outer(np.sqrt(spec.beta / spec.d) * rng.standard_normal(rows), spec.spike)
        elif spec.kind == datagen.SPIKED_CUMULANT:
            g = spec.g_dist.sample(rows, rng)
            eta = np.sqrt(spec.beta / (1.0 + spec.beta))
            coef = (np.sqrt(1.0 - eta * eta) - 1.0) * (x @ sampler.ubar) + eta * g
            x += np.outer(coef, sampler.ubar)
        blocks.append(x)
    return np.concatenate(blocks)


def erf_variance_quadrature(gain: float) -> float:
    """E[erf(g z)^2] for z ~ N(0,1) by adaptive quadrature.

    Fixed-order Gauss-Hermite under-resolves the erf transition once the
    gain exceeds ~2 (64 nodes are 2e-3 off at gain 3); adaptive
    Gauss-Kronrod on the half line resolves every gain to near machine
    precision.  The NLGP sampler uses the closed form instead.
    """
    from scipy.integrate import quad

    val, _err = quad(
        lambda z: erf(gain * z) ** 2 * np.exp(-0.5 * z * z),
        0.0,
        np.inf,
        epsabs=1e-14,
        epsrel=1e-12,
    )
    return float(2.0 * val / np.sqrt(2.0 * np.pi))


def uniform_score_quadrature(t: float, beta: float) -> float:
    """The Uniform per-sample score log E_g sqrt(1+beta) exp(-(1+beta)/2 (g-t)^2 + g^2/2)
    by adaptive quadrature of its defining integral (epsrel 1e-13).

    The exponent E(g) is shifted by its maximum over the support, which is
    at an end or, for beta > 0, at mu = (1+beta)t/beta, so the integrand
    lies in (0, 1] and the peak is a break point of the quadrature.
    `likelihood.loglik_terms` uses the closed form instead.
    """
    from scipy.integrate import quad

    s3 = math.sqrt(3.0)

    def expo(g):
        return -0.5 * (1.0 + beta) * (g - t) ** 2 + 0.5 * g * g

    peak = [min(max((1.0 + beta) * t / beta, -s3), s3)] if beta > 0 else []
    top = max(expo(g) for g in [-s3, s3] + peak)
    inner = [g for g in peak if -s3 < g < s3]
    val, _err = quad(lambda g: math.exp(expo(g) - top), -s3, s3, epsabs=0.0, epsrel=1e-13,
                     limit=200, points=inner or None)
    return 0.5 * math.log1p(beta) + top + math.log(val / (2.0 * s3))


def uniform_score_rule(t, beta: float) -> np.ndarray:
    """The Uniform per-sample score by the 64-node Gauss-Legendre rule `uniform_rule()`,
    with a max-shifted log-sum-exp over the nodes: the search score before the
    closed form of `likelihood.loglik_terms`."""
    nodes, weights = uniform_rule()
    expo = (np.log(weights) - 0.5 * (1.0 + beta) * (nodes - np.asarray(t)[..., None]) ** 2
            + 0.5 * nodes**2)
    top = expo.max(axis=-1)
    return 0.5 * np.log1p(beta) + top + np.log(np.exp(expo - top[..., None]).sum(axis=-1))


# Degrees above this are refused outright rather than silently losing
# precision in the value recurrence.
DEFAULT_MAX_DEGREE = 64


class DegreeError(ValueError):
    """Requested degree lies outside the range of `hermite_eval`."""


def hermite_eval(m: int, x) -> float | np.ndarray:
    """h_m(x) by the three-term value recurrence h_{k+1} = x h_k - k h_{k-1},
    O(m) per point and free of the cancellation of the large integer
    coefficients of `hermite_coefficients`; scalar for scalar input.
    Degrees outside [0, DEFAULT_MAX_DEGREE] raise DegreeError.
    """
    if not 0 <= m <= DEFAULT_MAX_DEGREE:
        raise DegreeError(
            f"degree {m} outside supported range [0, {DEFAULT_MAX_DEGREE}]"
        )
    arr = np.asarray(x, dtype=np.float64)
    prev, cur = np.ones_like(arr), arr.copy()
    for k in range(1, m):
        prev, cur = cur, arr * cur - k * prev
    out = cur if m > 0 else prev
    return float(out) if arr.ndim == 0 else out


def abs_coefficient_sum(m: int) -> int:
    """S_m = sum_k |a_{m,k}| of a `hermite_coefficients` row; satisfies S_m <= m!."""
    return sum(abs(c) for c in hermite_coefficients(m))


def eval_exact(m: int, x: int) -> int:
    """h_m at an integer point, in exact integer arithmetic."""
    return sum(c * x**k for k, c in enumerate(hermite_coefficients(m)))


def coefficient_rows(max_degree: int) -> list[list[int]]:
    """Integer coefficient rows a_{m,k}, k = 0..m, for m = 0..max_degree,
    by the coefficient recurrence

        a_{m+1,0} = -a_{m,1},   a_{m+1,k} = a_{m,k-1} - (k+1) a_{m,k+1}.
    """
    rows = [[1]]
    for m in range(max_degree):
        prev = rows[-1]
        nxt = [0] * (m + 2)
        nxt[0] = -prev[1] if m >= 1 else 0
        for k in range(1, m + 2):
            val = prev[k - 1]
            if k + 1 <= m:
                val -= (k + 1) * prev[k + 1]
            nxt[k] = val
        rows.append(nxt)
    return rows


def hermite_coefficients(m: int) -> tuple[int, ...]:
    """Exact integer coefficients (a_{m,0}, ..., a_{m,m}) of h_m: row m of
    `coefficient_rows`."""
    return tuple(coefficient_rows(m)[m])


def coeff_expectation_closed_form(kind: str, m: int) -> float:
    """E[h_m(g)] by one closed form per law, exact up to the final rounding.

    Rademacher: h_m(1) for even m (exact integers), 0 for odd m.
    Uniform(-sqrt 3, sqrt 3): rational moment sum, E[g^{2j}] = 3^j/(2j+1).
    Standard Gaussian: delta_{m,0} by orthogonality.
    `hermite.hermite_coeff_expectation` sums every law's exact moments.
    """
    if kind == STANDARD_GAUSSIAN:
        return 1.0 if m == 0 else 0.0
    if m % 2 == 1:
        return 0.0  # even distribution kills odd degrees
    if kind == RADEMACHER:
        # integer value recurrence for h_m(1)
        prev, cur = 1, 1
        if m == 0:
            return 1.0
        for k in range(1, m):
            prev, cur = cur, cur - k * prev
        return float(cur)
    assert kind == UNIFORM, kind
    coeffs = hermite_coefficients(m)
    total = Fraction(0)
    for k in range(0, m + 1, 2):
        total += Fraction(coeffs[k]) * Fraction(3 ** (k // 2), k + 1)
    return float(total)


def write_csv_unbuffered(data, path) -> None:
    """The dataset CSV, built one value at a time in one in-memory string.

    Each value is written as repr(float(v)); the whole file is held in
    memory before it is written.  `datagen.write_csv` streams the same
    bytes a block of rows at a time.
    """
    d = data.d
    header = "label," + ",".join(f"x_{i}" for i in range(d))
    buf = io.StringIO()
    buf.write(header + "\n")
    for lab, row in zip(data.labels, data.values):
        buf.write(repr(float(lab)))
        for v in row:
            buf.write("," + repr(float(v)))
        buf.write("\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def _pair_table(d: int) -> np.ndarray:
    """The symmetric d x d table of pair numbers, pairs a <= b in row-major order."""
    a, b = np.triu_indices(d)
    table = np.empty((d, d), dtype=np.intp)
    table[a, b] = table[b, a] = np.arange(len(a))
    return table


def full_tensor(k: FourthCumulant) -> np.ndarray:
    """The (d, d, d, d) tensor of a pair-space cumulant: entry ijkl is K[(ij), (kl)]."""
    table = _pair_table(k.d)
    return k.matrix[table[:, :, None, None], table[None, None, :, :]]


def from_full(t: np.ndarray) -> FourthCumulant:
    """The pair-space cumulant of a full symmetric tensor: its (i <= j, k <= l) block."""
    a, b = np.triu_indices(t.shape[0])
    return FourthCumulant(np.ascontiguousarray(t[a, b][:, a, b]))


def orbit_tensor(d: int, vals: np.ndarray) -> np.ndarray:
    """The (d, d, d, d) tensor with one value per sorted index orbit
    i <= j <= k <= l (`vals`, in itertools.combinations_with_replacement
    order) scattered to all 24 permutations, so it is exactly symmetric."""
    quad = np.array(list(itertools.combinations_with_replacement(range(d), 4))).T
    out = np.empty((d,) * 4)
    for p in itertools.permutations(quad):
        out[p] = vals
    return out


def contract3_full(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T(v, v, v, .) of a full tensor: three matrix-vector products that read all d^4 entries."""
    d = t.shape[0]
    x = t.reshape(d**3, d) @ v
    x = x.reshape(d * d, d) @ v
    return x.reshape(d, d) @ v


def contract4(k: FourthCumulant, v: np.ndarray) -> float:
    """T(v, v, v, v)."""
    return float(k.contract3(v) @ v)


EXACT_ENUMERATION_BUDGET = 10_000_000


def _nonzero_degree_tuples(n: int, D: int):
    """Ordered tuples (m_1, ..., m_k), each even >= 4, total <= D, k <= n."""
    degs = [m for m in range(4, D + 1, 2)]
    max_rows = min(n, D // 4)
    for k in range(max_rows + 1):
        for tup in itertools.product(degs, repeat=k):
            if sum(tup) <= D:
                yield tup


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumeration_count(n: int, d: int, D: int) -> int:
    """The number of multi-indices `ldlr_exact_small_log` visits: a row of
    degree m has C(m + d - 1, d - 1) compositions into d columns."""
    return sum(math.prod(math.comb(m + d - 1, d - 1) for m in tup)
               for tup in _nonzero_degree_tuples(n, D))


def ldlr_exact_small_log(n: int, d: int, D: int, beta: float, g_dist) -> float:
    """Exact log ||L^{<=D}||^2 by enumeration over multi-multi-indices.

    Rows with degree in {1, 2, 3} or odd degree are pruned outright (their
    T coefficient vanishes), so at most floor(D/4) rows are nonzero.  A
    contribution depends only on the multiset of nonzero rows, never on
    which samples host them, so placements enter as a C(n, k) factor and
    the enumeration cost is independent of n.  The spike prior average
    E_u[u^alpha] is the even-column parity rule: 1 when every column sum
    of alpha is even, else 0.  The terms are summed by math.fsum.  An
    instance with more than EXACT_ENUMERATION_BUDGET multi-indices is
    refused before any is visited.  `ldlr.ldlr_norm_log` sums the overlap
    series instead.
    """
    if n < 1 or d < 1 or D < 0:
        raise ValueError("need n >= 1, d >= 1, D >= 0")
    count = enumeration_count(n, d, D)
    if count > EXACT_ENUMERATION_BUDGET:
        raise ValueError(f"exact enumeration would visit {count} multi-indices, "
                         f"over the budget of {EXACT_ENUMERATION_BUDGET}")

    comps: dict[int, list[tuple[int, ...]]] = {}  # compositions of each degree, listed once
    terms = []
    for tup in _nonzero_degree_tuples(n, D):
        t_prod = math.prod(t_coeff(m, beta, g_dist) for m in tup)
        if t_prod == 0.0:
            continue
        placements = math.comb(n, len(tup))  # ways to put the rows on distinct samples
        deg_total = sum(tup)
        for m in tup:
            if m not in comps:
                comps[m] = list(_compositions(m, d))
        for combo in itertools.product(*(comps[m] for m in tup)):
            col = [0] * d
            for row in combo:
                for i in range(d):
                    col[i] += row[i]
            if any(c % 2 for c in col):
                continue
            fact = 1.0
            for row in combo:
                for e in row:
                    fact *= math.factorial(e)
            terms.append(placements * t_prod**2 / (fact * float(d) ** deg_total))
    return float(np.log(math.fsum(terms)))


def ldlr_norm_fraction(n: int, d: int, D: int, beta: Fraction, g_dist) -> Fraction:
    """||L^{<=D}||^2 in exact rational arithmetic, by the overlap series of
    `ldlr.ldlr_norm_log`: a_m = T_m^2/m!, E[lambda^M] = sum_j C(d, j) 2^-d
    (2j/d - 1)^M, and the powers of f - 1 truncated at degree D."""
    ratio = beta / (1 + beta)
    a = [Fraction(0)] * (D + 1)
    for m in range(4, D + 1, 2):
        e = sum(c * g_dist.moment(k) for k, c in enumerate(hermite_coefficients(m)))
        a[m] = ratio**m * e * e / math.factorial(m)
    moment = [sum(math.comb(d, j) * Fraction(2 * j - d, d) ** M for j in range(d + 1)) / 2**d
              for M in range(D + 1)]
    total, power = Fraction(1), [Fraction(1)] + [Fraction(0)] * D
    for k in range(1, min(D // 4, n) + 1):
        power = [sum(power[i] * a[M - i] for i in range(M + 1)) for M in range(D + 1)]
        total += math.comb(n, k) * sum(p * mu for p, mu in zip(power, moment))
    return total


def ldlr_exact_spike_average_log(n: int, d: int, D: int, beta: float, g_dist) -> float:
    """Exact log ||L^{<=D}||^2 with E_u[u^alpha] averaged over all 2^d spikes.

    The same enumeration as `ldlr_exact_small_log`, but the spike
    prior average is taken over every Rademacher spike (d <= 16) instead
    of read from the even-column parity rule.
    """
    if d > 16:
        raise ValueError("exact 2^d spike average limited to d <= 16")
    spikes = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    total = 0.0
    for tup in _nonzero_degree_tuples(n, D):
        k = len(tup)
        t_prod = math.prod(t_coeff(m, beta, g_dist) for m in tup)
        placements = math.perm(n, k) / math.factorial(k)
        for combo in itertools.product(*(list(_compositions(m, d)) for m in tup)):
            col = np.zeros(d, dtype=int)
            for row in combo:
                col += row
            e_u = float(np.mean(np.prod(spikes**col, axis=1)))
            fact = math.prod(math.factorial(e) for row in combo for e in row)
            total += placements * (t_prod * e_u) ** 2 / (fact * float(d) ** sum(tup))
    return float(np.log(total))


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
