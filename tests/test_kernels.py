"""Numba and numpy kernel twins agree; the numpy search matches a brute-force oracle."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import cumlab
from cumlab import _kernels, detect
from cumlab.hermite import GDistribution
from cumlab.likelihood import loglik_terms, sample_log_likelihood


def test_backend_selection():
    assert _kernels.backend() in ("numba", "numpy")
    old = _kernels.backend()
    try:
        assert _kernels.set_backend("numpy") == "numpy"
        assert _kernels.backend() == "numpy"
    finally:
        _kernels.set_backend(old)
    with pytest.raises(ValueError):
        _kernels.set_backend("cuda")


def _run_with_backend(name):
    # The child inherits the parent's environment and imports the same
    # cumlab package as the parent, whether it is installed or on PYTHONPATH.
    env = dict(os.environ, CUMLAB_BACKEND=name)
    root = os.path.dirname(os.path.dirname(cumlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    code = "from cumlab import _kernels; print(_kernels.backend())"
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


def test_env_var_selects_backend():
    out = _run_with_backend("numpy")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "numpy"
    # Without numba, "auto" resolves to numpy too; an invalid name shows the
    # variable is read at all.
    bad = _run_with_backend("cuda")
    assert bad.returncode != 0
    assert "CUMLAB_BACKEND='cuda'" in bad.stderr


def test_hermite_twins_agree():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1000)
    for m in (0, 1, 5, 12):
        a = _kernels.hermite_eval_numpy(m, x)
        b = _kernels.hermite_eval_numba(m, x)
        np.testing.assert_allclose(a, b, rtol=1e-13)


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


def test_sgd_twins_agree():
    rng = np.random.default_rng(3)
    n, d, m, bs = 64, 6, 10, 8
    X = rng.standard_normal((n, d))
    y = np.sign(rng.standard_normal(n))
    order = rng.permutation(n)
    init_W = rng.standard_normal((m, d)) / np.sqrt(d)
    init_b = np.zeros(m)
    init_v = rng.standard_normal(m) / np.sqrt(m)

    states = {}
    for name, fn in (("numpy", _kernels.sgd_epoch_numpy), ("numba", _kernels.sgd_epoch_numba)):
        W, b, v = init_W.copy(), init_b.copy(), init_v.copy()
        c = fn(W, b, v, 0.0, X, y, order, bs, 0.05, 0.01)
        states[name] = (W, b, v, c)
    for a, b in zip(states["numpy"], states["numba"]):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)
