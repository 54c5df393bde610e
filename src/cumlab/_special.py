"""The special functions cumlab evaluates, ported from scipy.special so that no subcommand
imports scipy (0.11 s and 20 MB a process on 2 vCPUs); scipy is the tests' oracle.  Only
math and numpy are imported here, as `datagen` imports this module in `import cumlab.cli`."""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

# Cephes ndtr.c, as scipy.special.erf: x T(x^2)/U(x^2) for |x| <= 1, 1 - exp(-x^2) P(|x|)/Q(|x|)
# below 8, and +-1 from 8 on, where Cephes' erfc (R/S fit, 0 past x^2 > MAXLOG) is < 1.2e-29.
# U and Q lead with p1evl's implied 1: 1 * x is exact, so Horner's rule rounds as p1evl does.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2, 1.82390916687909736289e3,
           2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)


def _polevl(x: np.ndarray, coefs: tuple, out: np.ndarray) -> None:
    """Horner's rule into `out`, rounding as Cephes' polevl does."""
    out.fill(coefs[0])
    for c in coefs[1:]:
        np.multiply(out, x, out=out)
        np.add(out, c, out=out)


def erf(x: np.ndarray) -> None:
    """erf of a (rows, d) float64 array, in place: scipy.special.erf to 1 ulp, as numpy's
    exp may differ from libm's in the last bit.  Both fits run on every value, and the
    one for its range is kept, so no value is gathered."""
    rows = max(1, 2**14 // x.shape[1])  # 16k values a pass: the scratch stays in L2
    scratch = np.empty((4, *x[:rows].shape))
    with np.errstate(all="ignore"):  # exp underflows; 0 * inf at +-inf is overwritten
        for start in range(0, len(x), rows):
            v = x[start:start + rows]
            ax, sq, p, q = scratch[:, : len(v)]
            np.abs(v, out=ax)
            np.multiply(v, v, out=sq)
            _polevl(ax, _ERFC_P, p)
            _polevl(ax, _ERFC_Q, q)
            np.exp(np.negative(sq, out=ax), out=ax)
            np.multiply(ax, p, out=ax)
            np.divide(ax, q, out=ax)
            np.subtract(1.0, ax, out=ax)
            np.copyto(ax, 1.0, where=sq >= 64.0)
            np.copysign(ax, v, out=ax)
            _polevl(sq, _ERF_T, p)
            _polevl(sq, _ERF_U, q)
            np.multiply(v, p, out=p)
            np.divide(p, q, out=p)
            np.copyto(ax, p, where=sq <= 1.0)
            np.copyto(v, ax)


# Cephes gamma.c, as scipy.special.gammaln: Stirling's series (A) from 13 on; below, the recurrence
# Gamma(x+1) = x Gamma(x) down or up to a rational fit on [2, 3) (B/C, C led by p1evl's 1)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)


def gammaln(x: float) -> float:
    """log Gamma(x) of a float 1 <= x <= 2.556348e305, scipy.special.gammaln bit for bit:
    libm's log through `math.log`, as numpy's SIMD log may differ in the last bit."""
    if not 1.0 <= x <= 2.556348e305:
        raise ValueError(f"gammaln is ported for 1 <= x <= 2.556348e305 only, got {x!r}")
    if x >= 13.0:
        q = (x - 0.5) * math.log(x) - x + 0.91893853320467274178  # + log(sqrt(2 pi))
        if x > 1.0e8:
            return q
        p = 1.0 / (x * x)
        if x >= 1000.0:
            return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                        + 0.0833333333333333333333) / x
        return q + reduce(lambda acc, c: acc * p + c, _LGAM_A) / x
    z, p = 1.0, 0.0
    while x + p >= 3.0:
        p -= 1.0
        z *= x + p
    if x < 2.0:
        z, p = 1.0 / x, 1.0
    if x + p == 2.0:
        return math.log(z)
    x = x + (p - 2.0)
    return math.log(z) + (x * reduce(lambda acc, c: acc * x + c, _LGAM_B)
                          / reduce(lambda acc, c: acc * x + c, _LGAM_C))


def logsumexp(a) -> float:
    """log(sum(exp(a))) of a real 1-D array, -inf entries included, as scipy 1.17 bit for bit:
    the largest entries leave the sum and are counted; a non-finite result is taken directly."""
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(all="ignore"):
        a_max = a.max(keepdims=True)
        top = a == a_max
        m = top.sum(keepdims=True, dtype=np.float64)
        s = np.exp(np.where(top, -np.inf, a) - a_max).sum(keepdims=True)
        out = (np.log1p(s if s[0] == 0 else s / m) + np.log(m) + a_max)[0]
        return float(out if np.isfinite(out) else np.log(np.exp(a).sum()))


# erfc(z) ~ exp(-z^2)/(z sqrt pi) sum_k (-1)^k (2k-1)!! (2z^2)^-k, k = 16..0: from z = 8 on,
# the first term left out is below 1e-17
_ERFC_SERIES = tuple(float((-1) ** k * math.prod(range(2 * k - 1, 0, -2)))
                     for k in range(16, -1, -1))


def log_ndtr(x) -> np.ndarray:
    """log Phi(x) of float64 values, Phi the normal CDF, finite for x > -1.9e154.  With t = x/sqrt 2
    and r = exp(t^2) erfc(|t|)/2 (Cephes' P/Q fit for 1 <= |t| < 8, the asymptotic series beyond),
    it is log(r) - t^2 for t < -1, log1p(-exp(-t^2) r) for t > 1 and log1p(erf(t)) - log 2 by
    Cephes' erf fit between.  All branches run on every value; the one for its range is kept."""
    t = np.multiply(x, math.sqrt(0.5), dtype=np.float64)
    z = np.abs(t)
    p, q = np.empty_like(z), np.empty_like(z)
    with np.errstate(all="ignore"):  # z = 0 and z^2 = inf in branches that are not kept
        sq = z * z
        _polevl(z, _ERFC_P, p)
        _polevl(z, _ERFC_Q, q)
        p /= 2.0 * q
        _polevl(0.5 / sq, _ERFC_SERIES, q)
        np.copyto(p, q / z * (0.5 / math.sqrt(math.pi)), where=z >= 8.0)  # r
        out = np.where(t > 1.0, np.log1p(-np.exp(-sq) * p), np.log(p) - sq)
        _polevl(sq, _ERF_T, p)
        _polevl(sq, _ERF_U, q)
        np.copyto(out, np.log1p(t * p / q) - math.log(2.0), where=z <= 1.0)
    return out[()]
