"""Hot numeric kernels.

The Hermite evaluation and the SGD epoch exist in two semantically
identical implementations:

* ``*_numba`` -- scalar loops compiled with ``numba.njit``, used by default;
* ``*_numpy`` -- vectorised numpy, used when numba is unavailable or when
  the environment variable ``CUMLAB_BACKEND=numpy`` is set.

``CUMLAB_BACKEND`` accepts ``auto`` (default), ``numba`` or ``numpy`` and is
read once at import; tests can also call both twins directly.

The exhaustive spike search is numpy only.  It takes the per-sample score
as a function (``likelihood.loglik_terms`` with beta and g bound by the
caller), so the search and the likelihood share one implementation; this
module does not import ``likelihood``, which imports ``hermite``, which
imports this module.  Its argmax and tie-break do not depend on how the
candidate space is split into blocks.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


_VALID_BACKENDS = ("auto", "numba", "numpy")


def _resolve_backend(name: str) -> str:
    if name not in _VALID_BACKENDS:
        raise ValueError(f"CUMLAB_BACKEND={name!r} not in {_VALID_BACKENDS}")
    if name == "auto":
        return "numba" if NUMBA_AVAILABLE else "numpy"
    if name == "numba" and not NUMBA_AVAILABLE:
        raise RuntimeError("CUMLAB_BACKEND=numba requested but numba is not importable")
    return name


_BACKEND = _resolve_backend(os.environ.get("CUMLAB_BACKEND", "auto"))


def backend() -> str:
    """Active kernel backend, 'numba' or 'numpy'."""
    return _BACKEND


def set_backend(name: str) -> str:
    """Override the backend at runtime (mainly for tests); returns it."""
    global _BACKEND
    _BACKEND = _resolve_backend(name)
    return _BACKEND


# ---------------------------------------------------------------------------
# Hermite evaluation: h_{m+1}(x) = x h_m(x) - m h_{m-1}(x)
# ---------------------------------------------------------------------------


def hermite_eval_numpy(m: int, x: np.ndarray) -> np.ndarray:
    if m == 0:
        return np.ones_like(x)
    prev = np.ones_like(x)
    cur = x.copy()
    for k in range(1, m):
        prev, cur = cur, x * cur - k * prev
    return cur


@njit(cache=True)
def _hermite_eval_numba(m, x):
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        if m == 0:
            out[i] = 1.0
            continue
        prev = 1.0
        cur = x[i]
        for k in range(1, m):
            nxt = x[i] * cur - k * prev
            prev = cur
            cur = nxt
        out[i] = cur
    return out


def hermite_eval_numba(m: int, x: np.ndarray) -> np.ndarray:
    return _hermite_eval_numba(np.int64(m), np.ascontiguousarray(x, dtype=np.float64))


def hermite_eval(m: int, x: np.ndarray) -> np.ndarray:
    if _BACKEND == "numba":
        return hermite_eval_numba(m, x)
    return hermite_eval_numpy(m, x)


# ---------------------------------------------------------------------------
# Exhaustive spike search over the half-hypercube (first coordinate +1).
#
# Candidates are indexed by a (d-1)-bit code: bit (d-1-i) gives the sign of
# coordinate i (set bit -> +1), so the code's integer order is the
# lexicographic order with -1 < +1.  Codes are scored in blocks; ties in
# the score are broken toward the smallest code.
# ---------------------------------------------------------------------------

# cap on n * block, so a per-sample score that expands each projection over
# 64 quadrature nodes keeps its (n, block, 64) workspace at 2^24 elements
_SEARCH_WORKSPACE = 1 << 18


def search_best_code(X, scale, terms, block: int = 2048):
    """Best candidate code and its score sum_mu terms(scale * x_mu . v).

    `terms` maps an array of scaled projections to per-sample scores of the
    same shape (``likelihood.loglik_terms`` with beta and g bound).
    """
    n, d = X.shape
    ncand = 1 << (d - 1)
    block = max(1, min(block, ncand, _SEARCH_WORKSPACE // max(1, n)))
    shifts = d - 1 - np.arange(1, d)
    best_score, best_code = -np.inf, 0
    for start in range(0, ncand, block):
        codes = np.arange(start, min(start + block, ncand), dtype=np.int64)
        V = np.ones((len(codes), d))
        V[:, 1:] = np.where((codes[:, None] >> shifts[None, :]) & 1 == 1, 1.0, -1.0)
        T = scale * (X @ V.T)  # (n, block)
        scores = terms(T).sum(axis=0)
        j = int(np.argmax(scores))  # first max = smallest code within the block
        if scores[j] > best_score:
            best_score, best_code = float(scores[j]), int(codes[j])
    return best_code, best_score


# ---------------------------------------------------------------------------
# One epoch of minibatch SGD on the two-layer ReLU network (squared loss on
# +-1 labels, L2 decay on the weight matrices).  The update order over
# batches is part of the determinism contract, so both twins consume a
# precomputed permutation and touch parameters in the same sequence.
# ---------------------------------------------------------------------------


def sgd_epoch_numpy(W, bias, v, out_bias, X, y, order, batch_size, lr, wd):
    n = X.shape[0]
    c = out_bias
    for s in range(0, n, batch_size):
        idx = order[s : s + batch_size]
        Xb = X[idx]
        yb = y[idx]
        A = Xb @ W.T + bias
        R = np.maximum(A, 0.0)
        gout = 2.0 * ((R @ v + c) - yb) / len(idx)
        gv = R.T @ gout
        gc = gout.sum()
        GR = gout[:, None] * v[None, :]
        GR[A <= 0.0] = 0.0
        gW = GR.T @ Xb
        gb = GR.sum(axis=0)
        W -= lr * (gW + wd * W)
        bias -= lr * gb
        v -= lr * (gv + wd * v)
        c -= lr * gc
    return c


@njit(cache=True)
def _sgd_epoch_numba(W, bias, v, out_bias, X, y, order, batch_size, lr, wd):
    n, d = X.shape
    m = W.shape[0]
    c = out_bias
    for s in range(0, n, batch_size):
        hi = min(s + batch_size, n)
        nb = hi - s
        gW = np.zeros((m, d))
        gb = np.zeros(m)
        gv = np.zeros(m)
        gc = 0.0
        for r in range(s, hi):
            mu = order[r]
            out = c
            act = np.empty(m)
            for j in range(m):
                a = bias[j]
                for i in range(d):
                    a += W[j, i] * X[mu, i]
                act[j] = a if a > 0.0 else 0.0
                out += v[j] * act[j]
            g = 2.0 * (out - y[mu]) / nb
            gc += g
            for j in range(m):
                gv[j] += g * act[j]
                if act[j] > 0.0:
                    gj = g * v[j]
                    gb[j] += gj
                    for i in range(d):
                        gW[j, i] += gj * X[mu, i]
        for j in range(m):
            for i in range(d):
                W[j, i] -= lr * (gW[j, i] + wd * W[j, i])
            bias[j] -= lr * gb[j]
            v[j] -= lr * (gv[j] + wd * v[j])
        c -= lr * gc
    return c


def sgd_epoch_numba(W, bias, v, out_bias, X, y, order, batch_size, lr, wd):
    return float(
        _sgd_epoch_numba(
            W,
            bias,
            v,
            float(out_bias),
            X,
            y,
            order,
            np.int64(batch_size),
            float(lr),
            float(wd),
        )
    )


def sgd_epoch(W, bias, v, out_bias, X, y, order, batch_size, lr, wd):
    if _BACKEND == "numba":
        return sgd_epoch_numba(W, bias, v, out_bias, X, y, order, batch_size, lr, wd)
    return sgd_epoch_numpy(W, bias, v, out_bias, X, y, order, batch_size, lr, wd)
