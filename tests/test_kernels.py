"""The search kernel matches a brute-force oracle and does not depend on its
blocking; the SGD epoch is bit-equal to its reference loop."""

import itertools

import numpy as np
import pytest

from cumlab import _kernels, detect, learn
from cumlab.hermite import GDistribution
from cumlab.likelihood import loglik_terms, sample_log_likelihood


def test_search_matches_brute_force_oracle():
    # score every spike with first coordinate +1 on its own; the search must
    # return the first maximiser in code order (lexicographic, -1 < +1)
    rng = np.random.default_rng(1)
    for dist in (GDistribution.rademacher(), GDistribution.uniform()):
        for d in (3, 6, 9):
            for trial in range(3):
                n = int(rng.integers(2, 60))
                beta = float(rng.uniform(0.5, 20.0))
                X = rng.standard_normal((n, d))
                if trial == 0:
                    X[:, -1] = 0.0  # every spike ties with its last-sign flip
                spikes = [np.array((1.0,) + signs)
                          for signs in itertools.product((-1.0, 1.0), repeat=d - 1)]
                scores = [sample_log_likelihood(X, v, beta, dist) for v in spikes]
                res = detect.exhaustive_search(X, beta, dist)
                np.testing.assert_array_equal(res.best_spike, spikes[int(np.argmax(scores))])
                assert res.best_loglik == pytest.approx(max(scores), rel=1e-12)


def test_search_numpy_blocking_invariance():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20, 9))
    X[:, 1] = 0.0  # codes c and c + 2^7 tie, and block=7 puts them in different blocks
    for dist in (GDistribution.rademacher(), GDistribution.uniform()):
        def terms(t):
            return loglik_terms(t, 10.0, dist)

        full = _kernels.search_best_code(X, 0.3, terms)
        small = _kernels.search_best_code(X, 0.3, terms, block=7)
        assert full[0] == small[0]
        assert full[1] == pytest.approx(small[1], rel=1e-12)


def reference_sgd_epoch(W, bias, v, c, X, y, order, batch_size, lr, wd, alpha=1.0, frozen=None):
    # the per-batch gather, boolean-mask store and out-of-place update that
    # _kernels.sgd_epoch must reproduce bit for bit
    for s in range(0, X.shape[0], batch_size):
        idx = order[s : s + batch_size]
        Xb = X[idx]
        yb = y[idx]
        A = Xb @ W.T + bias
        R = np.maximum(A, 0.0)
        out = R @ v + c
        if frozen is not None:
            out = alpha * (out - frozen(Xb))
        gout = 2.0 * (out - yb) / (len(idx) * alpha)
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


@pytest.mark.parametrize("alpha", [1.0, 10.0])
@pytest.mark.parametrize("batch_size", [7, 8])  # 8 leaves a short last batch
def test_sgd_epoch_bit_equal_to_reference(alpha, batch_size):
    rng = np.random.default_rng(5)
    n, d = 105, 12
    X = rng.standard_normal((n, d))
    y = np.sign(rng.standard_normal(n))
    net = learn.init_network(d, 5 * d, rng)
    net0 = net.copy()
    ref = net.copy()
    frozen = None if alpha == 1.0 else net0.forward
    for _ in range(3):
        order = rng.permutation(n)
        net.c = _kernels.sgd_epoch(net.W, net.b, net.v, net.c, X, y, order, batch_size,
                                   0.01, 0.002, alpha=alpha, frozen=frozen)
        ref.c = reference_sgd_epoch(ref.W, ref.b, ref.v, ref.c, X, y, order, batch_size,
                                    0.01, 0.002, alpha=alpha, frozen=frozen)
    np.testing.assert_array_equal(net.W, ref.W)
    np.testing.assert_array_equal(net.b, ref.b)
    np.testing.assert_array_equal(net.v, ref.v)
    assert net.c == ref.c
