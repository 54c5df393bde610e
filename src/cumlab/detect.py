"""Exponential-time exhaustive-search detector over the spike hypercube.

Scores every candidate spike v in {+-1}^d by the total conditional
log-likelihood ratio sum_mu log l(x^mu | v), with the per-sample score
`likelihood.loglik_terms`.  For an even latent law the score of v equals
the score of -v, so only the 2^(d-1) candidates with first coordinate +1
are enumerated.  Candidates are scored in blocks: one matrix product gives
the projections of all n samples on a block of candidates.

Ties are broken toward the lexicographically smallest candidate (ordering
-1 < +1 with the first coordinate pinned to +1), which is exactly the
smallest candidate code in the kernel's bit encoding.

The success-rate curve has one protocol, the `search-curve` experiment of
`cumlab.cli`: one search per (d, theta, run) grid point, on a spike and a
dataset drawn from that point's seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .hermite import STANDARD_GAUSSIAN, GDistribution
from .likelihood import loglik_terms, sample_log_likelihood

MAX_SEARCH_DIM = 30


@dataclass
class SearchResult:
    best_spike: np.ndarray
    best_loglik: float
    success: bool | None
    evaluations: int


def _code_to_spike(code: int, d: int) -> np.ndarray:
    v = np.ones(d)
    for i in range(1, d):
        if not (code >> (d - 1 - i)) & 1:
            v[i] = -1.0
    return v


def exhaustive_search(
    data: np.ndarray,
    beta: float,
    g_dist: GDistribution,
    true_spike: np.ndarray | None = None,
) -> SearchResult:
    """Maximise the total conditional log-likelihood over all sign spikes.

    `data` holds only rows of the putative spiked class.  Success (exact
    recovery up to sign) is reported when `true_spike` is given.  Hard cap
    d <= 30: the cost is 2^(d-1) * n per-sample score evaluations.
    """
    data = np.asarray(data, dtype=np.float64)
    n, d = data.shape
    if d > MAX_SEARCH_DIM:
        raise ValueError(
            f"d = {d} over the exhaustive-search cap {MAX_SEARCH_DIM}: "
            f"would score {2 ** (d - 1)} candidates on {n} samples"
        )
    if g_dist.kind == STANDARD_GAUSSIAN:
        # score is identically zero (the whitened Gaussian model is the
        # null), so every candidate ties: return the tie-break candidate
        best_code = 0
    else:
        scale = np.sqrt(beta / ((1.0 + beta) * d))
        best_code, _ = _kernels.search_best_code(
            data, scale, lambda t: loglik_terms(t, beta, g_dist)
        )
    spike = _code_to_spike(best_code, d)
    # score the winner as a standalone spike, so the reported value does
    # not depend on the block it was found in
    loglik = sample_log_likelihood(data, spike, beta, g_dist)
    success = None
    if true_spike is not None:
        aligned = true_spike if true_spike[0] > 0 else -true_spike
        success = bool(np.array_equal(spike, aligned))
    return SearchResult(
        best_spike=spike,
        best_loglik=loglik,
        success=success,
        evaluations=2 ** (d - 1),
    )
