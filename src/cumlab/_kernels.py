"""Hot numeric kernels: the exhaustive spike search and the SGD epoch.

Each has one numpy implementation.  The search takes the per-sample score
as a function (``likelihood.loglik_terms`` with beta and g bound by the
caller), so the search and the likelihood share one implementation; this
module imports no other cumlab module.  Its argmax and tie-break do not
depend on how the candidate space is split into blocks.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# Exhaustive spike search over the half-hypercube (first coordinate +1).
#
# Candidates are indexed by a (d-1)-bit code: bit (d-1-i) gives the sign of
# coordinate i (set bit -> +1), so the code's integer order is the
# lexicographic order with -1 < +1.  Codes are scored in blocks; ties in
# the score are broken toward the smallest code.
# ---------------------------------------------------------------------------

# cap on n * block: 2^14 float64 values (128 KB), so the projection buffer
# and the Rademacher score's temporaries stay in cache and the allocator
# reuses them block after block instead of mapping fresh pages; the Uniform
# score's (n, block, 64) quadrature workspace stays at 2^20 values (8 MB)
_SEARCH_WORKSPACE = 1 << 14


@lru_cache(maxsize=8)
def _low_signs(bits: int) -> np.ndarray:
    """(2^bits, bits) signs of every `bits`-bit code, most significant first."""
    codes = np.arange(1 << bits)[:, None]
    shifts = np.arange(bits - 1, -1, -1)[None, :]
    signs = np.where((codes >> shifts) & 1 == 1, 1.0, -1.0)
    signs.flags.writeable = False
    return signs


def search_best_code(X, scale, terms, block: int = 2048):
    """Best candidate code and its score sum_mu terms(scale * x_mu . v).

    `terms` maps an array of scaled projections to per-sample scores of the
    same shape (``likelihood.loglik_terms`` with beta and g bound); it must
    not write to its input, which is the reused projection buffer.

    `block` is rounded down to a power of two, so each block is one fixed
    pattern of the low code bits under constant high bits.  A block keeps at
    least two columns when there are two candidates or more: numpy sums a
    one-column array pairwise but a wider one row by row, so every score is
    the row-by-row sum whatever the block.
    """
    n, d = X.shape
    ncand = 1 << (d - 1)
    block = max(1, min(block, ncand, _SEARCH_WORKSPACE // max(1, n)))
    block = max(min(2, ncand), 1 << (block.bit_length() - 1))
    bits = block.bit_length() - 1
    high = d - bits  # V[:, 1:high] hold the high bits, constant in a block
    V = np.empty((block, d))
    V[:, 0] = 1.0
    V[:, high:] = _low_signs(bits)
    T = np.empty((n, block))
    shifts = np.arange(high - 2, -1, -1)
    best_score, best_code = -np.inf, 0
    for k in range(ncand // block):
        V[:, 1:high] = np.where((k >> shifts) & 1 == 1, 1.0, -1.0)
        np.matmul(X, V.T, out=T)
        T *= scale
        scores = terms(T).sum(axis=0)
        j = int(np.argmax(scores))  # first max = smallest code within the block
        if scores[j] > best_score:
            best_score, best_code = float(scores[j]), k * block + j
    return best_code, best_score


# ---------------------------------------------------------------------------
# One epoch of minibatch SGD on the two-layer ReLU network (squared loss on
# +-1 labels, L2 decay on the weight matrices).  The update order over
# batches is part of the determinism contract: the epoch consumes a
# precomputed permutation and touches parameters in a fixed sequence.
# ---------------------------------------------------------------------------


def sgd_epoch(W, bias, v, out_bias, X, y, order, batch_size, lr, wd, alpha=1.0, frozen=None):
    """One pass over `order` in minibatches; updates W, bias, v in place.

    Returns the updated output bias.  With `frozen`, a function giving the
    frozen initial network's outputs on a batch (e.g. ``net0.forward``), the
    model output is the centred-scaled alpha * (phi(x) - frozen(x)) and the
    loss is rescaled by 1/alpha^2; without it alpha must stay 1.
    """
    n = X.shape[0]
    c = out_bias
    # one gather per epoch; each batch is then a contiguous slice
    Xo, yo = X[order], y[order]
    for s in range(0, n, batch_size):
        Xb = Xo[s : s + batch_size]
        yb = yo[s : s + batch_size]
        A = Xb @ W.T + bias
        R = np.maximum(A, 0.0)
        out = R @ v + c
        if frozen is not None:
            out = alpha * (out - frozen(Xb))
        # d loss / d phi = 2 (out - y) / (batch alpha^2) * alpha
        gout = 2.0 * (out - yb) / (len(yb) * alpha)
        gv = R.T @ gout
        gc = gout.sum()
        GR = gout[:, None] * v[None, :]
        np.copyto(GR, 0.0, where=A <= 0.0)
        gW = GR.T @ Xb
        gb = GR.sum(axis=0)
        # in place, and bit-equal to W -= lr * (gW + wd * W): IEEE + and *
        # are commutative, so only the temporaries go
        gW += wd * W
        gW *= lr
        W -= gW
        gb *= lr
        bias -= gb
        gv += wd * v
        gv *= lr
        v -= gv
        c -= lr * gc
    return c
