"""The search kernel matches a brute-force oracle and does not depend on its blocking."""

import itertools

import numpy as np
import pytest

from cumlab import _kernels, detect
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
