"""The special functions cumlab evaluates beyond the standard library's `math.lgamma`: erf,
a 1-D logsumexp and log_ndtr, ported from scipy.special so that no subcommand imports scipy
(0.11 s and 20 MB a process on 2 vCPUs); scipy is the tests' oracle.  Only math and numpy
are imported here, as `datagen` imports this module in `import cumlab.cli`."""

from __future__ import annotations

import math

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
