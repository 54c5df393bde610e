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
dataset drawn from that point's seed; a search succeeds when it returns
the drawn spike up to sign.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .hermite import STANDARD_GAUSSIAN, GDistribution
from .likelihood import loglik_terms, sample_log_likelihood

MAX_SEARCH_DIM = 30


def exhaustive_search(
    data: np.ndarray, beta: float, g_dist: GDistribution
) -> tuple[np.ndarray, float]:
    """The sign spike of largest total conditional log-likelihood, with
    first coordinate +1, and that log-likelihood.

    `data` holds only rows of the putative spiked class.  Hard cap d <= 30:
    the cost is 2^(d-1) * n per-sample score evaluations.
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
    spike = np.concatenate(([1.0], _kernels.code_signs(best_code, d - 1)))
    # the reported value is sample_log_likelihood of the winner as a
    # standalone spike, not the kernel's score
    return spike, sample_log_likelihood(data, spike, beta, g_dist)
