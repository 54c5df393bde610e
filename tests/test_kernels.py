"""The search kernel matches a brute-force oracle, decodes candidate codes
as a coordinate loop does, does not depend on its blocking and is bit-equal
to its earlier blocked loop; the Rademacher score is bit-equal to its
one-line form; the SGD epoch is bit-equal to its reference loop."""

import copy
import itertools

import numpy as np
import pytest

from cumlab import _kernels, detect, learn
from cumlab.likelihood import loglik_terms, sample_log_likelihood
from oracles import LAWS, RADEM, UNIF, traced_peak


def test_search_matches_brute_force_oracle():
    # score every spike with first coordinate +1 on its own; the search must
    # return the first maximiser in code order (lexicographic, -1 < +1)
    rng = np.random.default_rng(1)
    for dist in (RADEM, UNIF):
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
                spike, loglik = detect.exhaustive_search(X, beta, dist)
                np.testing.assert_array_equal(spike, spikes[int(np.argmax(scores))])
                assert loglik == pytest.approx(max(scores), rel=1e-12)


def loop_code_to_spike(code, d):
    # the candidate of a code, one coordinate at a time: bit d-1-i of the
    # code gives the sign of coordinate i, and coordinate 0 is +1
    v = np.ones(d)
    for i in range(1, d):
        if not (code >> (d - 1 - i)) & 1:
            v[i] = -1.0
    return v


@pytest.mark.parametrize("d", range(1, 13))
def test_code_signs_match_the_coordinate_loop(d):
    signs = _kernels.code_signs(np.arange(1 << (d - 1)), d - 1)
    assert signs.shape == (1 << (d - 1), d - 1)
    for code in range(1 << (d - 1)):
        want = loop_code_to_spike(code, d)
        np.testing.assert_array_equal(np.concatenate(([1.0], signs[code])), want)
        np.testing.assert_array_equal(_kernels.code_signs(code, d - 1), want[1:])


def test_search_numpy_blocking_invariance(monkeypatch):
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20, 9))
    X[:, 1] = 0.0  # codes c and c + 2^7 tie, and 7-code blocks put them in different blocks
    for dist in (RADEM, UNIF):
        def terms(t):
            return loglik_terms(t, 10.0, dist)

        full = _kernels.search_best_code(X, 0.3, terms)
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "_SEARCH_BLOCK", 7)
            small = _kernels.search_best_code(X, 0.3, terms)
        assert full[0] == small[0]
        assert full[1] == pytest.approx(small[1], rel=1e-12)


def reference_search_best_code(X, scale, terms, block=2048):
    # the blocked loop that _kernels.search_best_code must reproduce bit for
    # bit: a sign matrix rebuilt for every block and a cap of 2^18 on n * block
    n, d = X.shape
    ncand = 1 << (d - 1)
    block = max(1, min(block, ncand, (1 << 18) // max(1, n)))
    shifts = d - 1 - np.arange(1, d)
    best_score, best_code = -np.inf, 0
    for start in range(0, ncand, block):
        codes = np.arange(start, min(start + block, ncand), dtype=np.int64)
        V = np.ones((len(codes), d))
        V[:, 1:] = np.where((codes[:, None] >> shifts[None, :]) & 1 == 1, 1.0, -1.0)
        T = scale * (X @ V.T)
        scores = terms(T).sum(axis=0)
        j = int(np.argmax(scores))
        if scores[j] > best_score:
            best_score, best_code = float(scores[j]), int(codes[j])
    return best_code, best_score


def reference_rademacher_terms(proj, beta):
    # the one-line closed form that loglik_terms must reproduce bit for bit
    t = np.asarray(proj, dtype=np.float64)
    a = 0.5 * (1.0 + beta)
    x = np.abs((2.0 * a) * t)
    const = 0.5 * np.log1p(beta) + 0.5 - a - np.log(2.0)
    return const + x - x * x / (4.0 * a) + np.log1p(np.exp(-2.0 * x))


# at n 2^14 + 1 the 2^14 cap alone would leave one column per block, which
# numpy sums pairwise; d 14 at that n (8 s) is left out for time
SEARCH_CASES = [
    (kind, d, n)
    for kind in ("rademacher", "uniform")
    for d in (1, 2, 9, 14)
    for n in (1, 2, 53, 300, (1 << 14) + 1)
    if (d, n) != (14, (1 << 14) + 1)
]


@pytest.mark.parametrize("kind,d,n", SEARCH_CASES)
def test_search_bit_equal_to_reference(kind, d, n):
    dist = LAWS[kind]
    beta = 10.0
    rng = np.random.default_rng(1000 * d + n)
    X = rng.standard_normal((n, d))
    scale = np.sqrt(beta / ((1.0 + beta) * d))

    def terms(t):
        return loglik_terms(t, beta, dist)

    assert _kernels.search_best_code(X, scale, terms) == reference_search_best_code(X, scale, terms)


@pytest.mark.parametrize("kind", ["rademacher", "uniform"])
def test_search_tie_bit_equal_to_reference(kind, monkeypatch):
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20, 9))
    X[:, 1] = 0.0  # codes c and c + 2^7 tie
    dist = LAWS[kind]

    def terms(t):
        return loglik_terms(t, 10.0, dist)

    for block in (2048, 7):
        monkeypatch.setattr(_kernels, "_SEARCH_BLOCK", block)
        got = _kernels.search_best_code(X, 0.3, terms)
        assert got == reference_search_best_code(X, 0.3, terms, block=block)


def test_rademacher_terms_bit_equal_to_one_line_form():
    rng = np.random.default_rng(3)
    inputs = [
        rng.standard_normal((53, 256)) * 3.0,
        rng.standard_normal(1000) * 1e150,  # x * x overflows to inf
        np.array([0.0, -0.0, 1e-300, -1e-300, 50.0, -400.0]),
        np.array(-2.5),
        np.float64(0.7),
    ]
    for beta in (0.1, 1.0, 10.0, 1e4):
        for t in inputs:
            before = np.copy(t)
            with np.errstate(over="ignore", invalid="ignore"):
                got = loglik_terms(t, beta, RADEM)
                want = reference_rademacher_terms(t, beta)
            assert type(got) is type(want)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(t, before)  # the input is left alone


def test_search_working_set_stays_small():
    # a d 14, n 53 Rademacher search keeps its projections and the score's
    # temporaries in buffers of at most 2^14 values; with 2048-column blocks
    # it held about 4.5 MB
    rng = np.random.default_rng(4)
    X = rng.standard_normal((53, 14))

    def search():
        return _kernels.search_best_code(X, 0.3, lambda t: loglik_terms(t, 10.0, RADEM))

    search()  # warm the cache
    peak = traced_peak(search)
    assert peak < 1_000_000


def reference_sgd_epoch(W, bias, v, c, X, y, order, batch_size, lr, wd):
    # the per-batch gather, boolean-mask store and out-of-place update that
    # _kernels.sgd_epoch must reproduce bit for bit
    for s in range(0, X.shape[0], batch_size):
        idx = order[s : s + batch_size]
        Xb = X[idx]
        yb = y[idx]
        A = Xb @ W.T + bias
        R = np.maximum(A, 0.0)
        out = R @ v + c
        gout = 2.0 * (out - yb) / len(idx)
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


# alpha 1 trains on the +-1 labels, alpha 10 on the lazy run's shifted
# targets y/alpha + phi0(x); the kernel's dot and putmask give the bits of
# the reference's @ and boolean-index store only as long as BLAS and numpy
# do, so the shipped sweeps' shapes are among the cases
@pytest.mark.parametrize("alpha", [1.0, 10.0])
@pytest.mark.parametrize("n, d, batch_size", [
    pytest.param(105, 12, 7, id="7"),
    pytest.param(105, 12, 8, id="8"),  # a short last batch
    pytest.param(200, 32, 8, id="d32-8"),  # the Wishart sweep's shape
    pytest.param(250, 24, 16, id="d24-16"),  # the cumulant sweep's, a short last batch
    pytest.param(105, 12, 128, id="one-batch"),  # a batch larger than n
    pytest.param(60, 1, 8, id="d1"),
])
def test_sgd_epoch_bit_equal_to_reference(alpha, n, d, batch_size):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((n, d))
    y = np.sign(rng.standard_normal(n))
    net = learn.init_network(d, 5 * d, rng)
    if alpha != 1.0:
        y = y / alpha + net.forward(X)
    ref = copy.deepcopy(net)
    for _ in range(3):
        order = rng.permutation(n)
        net.c = _kernels.sgd_epoch(net.W, net.b, net.v, net.c, X, y, order, batch_size,
                                   0.01, 0.002)
        ref.c = reference_sgd_epoch(ref.W, ref.b, ref.v, ref.c, X, y, order, batch_size,
                                    0.01, 0.002)
    np.testing.assert_array_equal(net.W, ref.W)
    np.testing.assert_array_equal(net.b, ref.b)
    np.testing.assert_array_equal(net.v, ref.v)
    assert net.c == ref.c
