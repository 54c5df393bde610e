"""Exhaustive-search detector: recovery, tie-breaks, and curve protocol."""

import numpy as np
import pytest

from cumlab import datagen, detect
from cumlab.likelihood import sample_log_likelihood
from oracles import GAUSS, RADEM, UNIF, run_config, traced_peak


def test_recovers_spike_on_aligned_data():
    # rows exactly u / sqrt(d): the score is an even function of x.v that
    # increases up to |scaled projection| ~ 1, so the aligned candidate
    # wins as long as the amplitude keeps it inside the increasing region
    # (at amplitude 5 the score has turned over and +-u no longer wins).
    d = 8
    u = datagen.draw_spike(d, np.random.default_rng(0))
    data = np.tile(1.0 * u / np.sqrt(d), (12, 1))
    spike, _ = detect.exhaustive_search(data, 10.0, RADEM)
    assert np.array_equal(spike, u if u[0] > 0 else -u)


def test_score_even_and_unimodal_in_projection():
    # per-sample Eq-6 score depends on the projection only through its
    # magnitude and peaks near eta^-1-scaled unity, hand-verified shape
    from cumlab.likelihood import loglik_terms

    beta = 10.0
    t = np.linspace(0.0, 5.0, 200)
    s_pos = loglik_terms(t, beta, RADEM)
    s_neg = loglik_terms(-t, beta, RADEM)
    np.testing.assert_allclose(s_pos, s_neg, atol=1e-12)
    peak = t[np.argmax(s_pos)]
    assert 0.8 < peak < 1.2
    assert s_pos[-1] < s_pos[0]  # large projections are disfavoured


def test_uniform_search_needs_no_quadrature_workspace():
    # the closed-form Uniform score works in (n, block) arrays of 2^14 values,
    # where the 64-node rule made (n, block, 64) arrays of 6.9 MB per block
    data = np.random.default_rng(5).standard_normal((53, 14))
    peak = traced_peak(lambda: detect.exhaustive_search(data, 10.0, UNIF))
    assert peak < 2 * 2**20, peak


def test_beta_zero_ties_break_lexicographically():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((20, 6))
    spike, loglik = detect.exhaustive_search(data, 0.0, RADEM)
    expected = np.array([1.0, -1.0, -1.0, -1.0, -1.0, -1.0])
    assert np.array_equal(spike, expected)
    assert loglik == pytest.approx(0.0, abs=1e-12)


def test_sign_class_equivalence():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((30, 7))
    for dist in (RADEM, UNIF):
        for _ in range(5):
            v = datagen.draw_spike(7, rng)
            s_pos = sample_log_likelihood(data, v, 10.0, dist)
            s_neg = sample_log_likelihood(data, -v, 10.0, dist)
            assert s_pos == pytest.approx(s_neg, abs=1e-12)


def test_best_loglik_matches_recomputation():
    rng = np.random.default_rng(3)
    u = datagen.draw_spike(9, rng)
    spec = datagen.ModelSpec(kind=datagen.SPIKED_CUMULANT, d=9, beta=10.0,
                             g_dist=RADEM, spike=u)
    data = datagen.sample_class(spec, 40, 5)
    spike, loglik = detect.exhaustive_search(data, 10.0, RADEM)
    recomputed = sample_log_likelihood(data, spike, 10.0, RADEM)
    assert loglik == pytest.approx(recomputed, abs=1e-10)


def test_dimension_cap():
    with pytest.raises(ValueError, match="candidates"):
        detect.exhaustive_search(np.zeros((2, 31)), 1.0, RADEM)


def test_gaussian_g_scores_are_flat():
    # the whitened Gaussian model equals the null: search is uninformative
    rng = np.random.default_rng(4)
    data = rng.standard_normal((10, 5))
    spike, loglik = detect.exhaustive_search(data, 10.0, GAUSS)
    assert np.array_equal(spike, np.array([1.0, -1.0, -1.0, -1.0, -1.0]))
    assert loglik == pytest.approx(0.0, abs=1e-12)


def search_curve(tmp_path, **cfg):
    """(theta, success rate) rows of a search-curve run of the CLI."""
    out = tmp_path / "search"
    assert run_config(out, dict(cfg, experiment="search-curve"))[0] == 0
    rows = (out / "success_rate.csv").read_text().splitlines()[1:]
    return [(float(r.split(",")[0]), float(r.split(",")[1])) for r in rows]


def test_success_rate_theta_zero_is_chance(tmp_path):
    # a single sample carries negligible information: rate ~ 2^(1-d)
    d, runs = 10, 60
    curve = search_curve(tmp_path, seed=3, d=d, theta=[0.0], beta=10.0, runs=runs)
    rate = curve[0][1]
    # binomial upper bound at ~5 sigma around p = 2/2^d
    p = 2.0 ** (1 - d)
    assert rate <= p + 5 * np.sqrt(p * (1 - p) / runs) + 2.0 / runs


def test_one_dimensional_search():
    # d = 1: a single candidate (+1); the search degenerates gracefully
    rng = np.random.default_rng(5)
    data = rng.standard_normal((15, 1))
    spike, _ = detect.exhaustive_search(data, 10.0, RADEM)
    assert np.array_equal(spike, np.array([1.0]))
