"""Hot numeric kernels: the exhaustive spike search, the SGD epoch and the
row blocks of the blocked matrix products.

Each has one numpy implementation.  The search takes the per-sample score
as a function (``likelihood.loglik_terms`` with beta and g bound by the
caller), so the search and the likelihood share one implementation; this
module imports no other cumlab module.  Its argmax and tie-break do not
depend on how the candidate space is split into blocks.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# A blocked product (rows, k) @ (k, width) computes a block of rows at a
# time into one reused buffer of about _BLOCK_VALUES values (512 KB), so it
# stays in cache however many rows the input has.  A row keeps the bits of
# the whole-array product only if the blocks split the rows where BLAS
# itself does.  With OpenBLAS 0.3.31's AVX-512 kernels, blocks of 64 or 256
# rows changed the last bits of some rows at widths above 192, and blocks
# of a multiple of 96 rows changed none at widths 5 to 640; a block is a
# multiple of _ROW_ALIGN rows.  A short last block would go to a
# small-matrix or matrix-vector routine (a one- or two-row product changes
# its rows), so the rows after the last full block join it.
_BLOCK_VALUES = 2**16
_ROW_ALIGN = 192


def row_blocks(n: int, width: int):
    """Yield (rows, buf) for each row block of an n-row product of `width`
    columns: the block's slice and a (block rows, width) view of one buffer
    that every block reuses.  The blocks follow the rule above."""
    rows = max(1, _BLOCK_VALUES // width // _ROW_ALIGN) * _ROW_ALIGN
    buf = np.empty((min(2 * rows - 1, n), width))
    start = 0
    for stop in [*range(rows, n - rows + 1, rows), n]:
        yield slice(start, stop), buf[: stop - start]
        start = stop


# ---------------------------------------------------------------------------
# Exhaustive spike search over the half-hypercube (first coordinate +1).
#
# Candidates are indexed by a (d-1)-bit code: bit (d-1-i) gives the sign of
# coordinate i (set bit -> +1; ``code_signs`` decodes), so the code's
# integer order is the lexicographic order with -1 < +1.  Codes are scored
# in blocks; ties in the score are broken toward the smallest code.
# ---------------------------------------------------------------------------

# cap on n * block: 2^14 float64 values (128 KB), so the projection buffer
# and the score's temporaries stay in cache and the allocator reuses them
# block after block instead of mapping fresh pages
_SEARCH_WORKSPACE = 1 << 14
# candidates per block, before the workspace cap and the power-of-two rounding
_SEARCH_BLOCK = 2048


def code_signs(codes, bits: int) -> np.ndarray:
    """Signs of `bits`-bit codes, shape codes.shape + (bits,), most
    significant bit first: a set bit gives +1, a clear bit -1."""
    shifts = np.arange(bits - 1, -1, -1)
    return np.where((np.asarray(codes)[..., None] >> shifts) & 1 == 1, 1.0, -1.0)


@lru_cache(maxsize=8)
def _low_signs(bits: int) -> np.ndarray:
    """(2^bits, bits) signs of every `bits`-bit code, read-only."""
    signs = code_signs(np.arange(1 << bits), bits)
    signs.flags.writeable = False
    return signs


def search_best_code(X, scale, terms):
    """Best candidate code and its score sum_mu terms(scale * x_mu . v).

    `terms` maps an array of scaled projections to per-sample scores of the
    same shape (``likelihood.loglik_terms`` with beta and g bound); it must
    not write to its input, which is the reused projection buffer.

    A block is _SEARCH_BLOCK codes, fewer where _SEARCH_WORKSPACE caps it,
    rounded down to a power of two, so each block is one fixed pattern of
    the low code bits under constant high bits.  A block keeps at least two
    columns when there are two candidates or more: numpy sums a one-column
    array pairwise but a wider one row by row, so every score is the
    row-by-row sum whatever the block.
    """
    n, d = X.shape
    ncand = 1 << (d - 1)
    block = max(1, min(_SEARCH_BLOCK, ncand, _SEARCH_WORKSPACE // max(1, n)))
    block = max(min(2, ncand), 1 << (block.bit_length() - 1))
    bits = block.bit_length() - 1
    high = d - bits  # V[:, 1:high] hold the high bits, constant in a block
    V = np.empty((block, d))
    V[:, 0] = 1.0
    V[:, high:] = _low_signs(bits)
    T = np.empty((n, block))
    best_score, best_code = -np.inf, 0
    for k in range(ncand // block):
        V[:, 1:high] = code_signs(k, high - 1)
        np.matmul(X, V.T, out=T)
        T *= scale
        scores = terms(T).sum(axis=0)
        j = int(np.argmax(scores))  # first max = smallest code within the block
        if scores[j] > best_score:
            best_score, best_code = float(scores[j]), k * block + j
    return best_code, best_score


# ---------------------------------------------------------------------------
# One epoch of minibatch SGD on the two-layer ReLU network (squared loss on
# real targets, L2 decay on the weight matrices).  The update order over
# batches is part of the determinism contract: the epoch consumes a
# precomputed permutation and touches parameters in a fixed sequence.
# ---------------------------------------------------------------------------


def sgd_epoch(W, bias, v, out_bias, X, y, order, batch_size, lr, wd):
    """One pass over `order` in minibatches on the loss (phi(x) - y)^2;
    updates W, bias, v in place and returns the updated output bias.

    The targets `y` are real: the +-1 labels for a plain run, shifted ones
    for a lazy run (see ``learn.train_2lnn``).
    """
    n = X.shape[0]
    m, d = W.shape
    md, k = m * d, m * d + m
    # one flat parameter vector theta = [W row-major, v, b, c] and its
    # gradient g in the same layout, so that a step updates every parameter
    # in four calls; weight decay acts on the prefix of length k, W and v.
    # The per-parameter arrays are views into theta and g.
    theta = np.concatenate((W.ravel(), v, bias, [out_bias]))
    g = np.empty_like(theta)
    Wt, vt, bt, ct = theta[:md].reshape(m, d), theta[md:k], theta[k:-1], theta[-1:]
    gW, gv, gb = g[:md].reshape(m, d), g[md:k], g[k:-1]
    theta_wd, g_wd, decay = theta[:k], g[:k], np.empty(k)
    # one gather per epoch; each batch is then a contiguous slice
    Xo, yo = X[order], y[order]
    for s in range(0, n, batch_size):
        Xb = Xo[s : s + batch_size]
        yb = yo[s : s + batch_size]
        # at these sizes ndarray.dot and np.putmask cost fewer microseconds
        # than @ and np.copyto(where=), for the same bits
        A = Xb.dot(Wt.T)
        A += bt
        R = np.maximum(A, 0.0)
        out = R.dot(vt)
        out += ct
        # out becomes the output gradient 2 (out - y) / len(y)
        out -= yb
        out *= 2.0
        out /= len(yb)
        R.T.dot(out, out=gv)
        g[-1] = np.add.reduce(out)
        GR = out[:, None] * vt[None, :]
        np.putmask(GR, A <= 0.0, 0.0)
        GR.T.dot(Xb, out=gW)
        np.add.reduce(GR, axis=0, out=gb)
        # per element, theta -= lr * (g + wd * theta) on W and v and
        # theta -= lr * g on b and c, rounded as written: IEEE + and * are
        # commutative, so only the temporaries go
        np.multiply(theta_wd, wd, out=decay)
        g_wd += decay
        g *= lr
        theta -= g
    W[...] = Wt
    v[...] = vt
    bias[...] = bt
    return theta[-1]
