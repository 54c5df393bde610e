"""Empirical fourth-order cumulant and rank-1 CP factor extraction.

The plug-in estimator uses empirical moments of mean-centred data,

    k[i,j,k,l] = E[x_i x_j x_k x_l] - E[x_i x_j] E[x_k x_l]
                 - E[x_i x_k] E[x_j x_l] - E[x_i x_l] E[x_j x_k].

The fourth moments come from G, the Gram matrix of the P = d(d+1)/2
unique pair products x_a x_b (a <= b), accumulated over fixed 4096-row
blocks in a fixed order (bounded workspace, deterministic sums).  Each
sorted index orbit i <= j <= k <= l is computed once, averaging the three
pairings of the moment,

    k = (G[ij,kl] + G[ik,jl] + G[il,jk]) / (3n)
        - (m2_ij m2_kl + m2_ik m2_jl + m2_il m2_jk),

and gathered into the P x P pair-space matrix K[(ij),(kl)] = k_ijkl (i <= j,
k <= l): K is exactly symmetric, and no d^4 tensor is built.  The O(1/n)
bias of the plug-in form is negligible at the localisation sample sizes.

The best rank-1 symmetric approximation gamma * v^(x4) is found by
symmetric higher-order power iteration, v <- T(v,v,v,.)/|.|, run on -T
when the dominant weight is negative, best of 8 random restarts by
|gamma|.  T(v,v,v,.) of the current iterate is carried from step to step,
where it also gives the weight T(v,v,v,v), so each step contracts the
cumulant once, with one P x P matrix-vector product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

MAX_CUMULANT_DIM = 64

_MOMENT_BLOCK_ROWS = 4096


@functools.lru_cache(maxsize=2)
def _pair_numbering(d: int):
    """Pairs a <= b in row-major order: a, b, weights 1 (a == b) or 2, d x d pair numbers."""
    a, b = np.triu_indices(d)
    pair_of = np.empty((d, d), dtype=np.intp)
    pair_of[a, b] = pair_of[b, a] = np.arange(len(a))
    return a, b, np.where(a == b, 1.0, 2.0), pair_of


@dataclass
class FourthCumulant:
    matrix: np.ndarray  # (P, P), K[(ij),(kl)] = k_ijkl for i <= j, k <= l; exactly symmetric

    @property
    def d(self) -> int:
        return (math.isqrt(8 * self.matrix.shape[0] + 1) - 1) // 2

    def contract3(self, v: np.ndarray) -> np.ndarray:
        """T(v, v, v, .) as a d-vector: one P x P matrix-vector product."""
        a, b, weights, pair_of = _pair_numbering(self.d)
        q = self.matrix @ (weights * v[a] * v[b])  # T(e_i, e_j, v, v) at pair (ij)
        return q[pair_of] @ v


@functools.lru_cache(maxsize=2)
def _orbit_indices(d: int):
    """Index arrays for dimension d, on the pair numbering of _pair_numbering.

    The offsets of the pairs (i, i..d-1) in the pair block; the pair
    numbers of the pairings (ij, kl), (ik, jl), (il, jk) of each sorted
    quadruple i <= j <= k <= l, as int32; and the P x P table of the
    quadruple that each entry of K is a pairing of.  A quadruple is a pair
    (i, j) followed by a pair (k, l) with j <= k: no d^4 grid is built."""
    a, b, _, pair_of = _pair_numbering(d)
    offsets = np.concatenate([[0], np.cumsum(np.arange(d, 0, -1))])
    first, second = np.nonzero(b[:, None] <= a[None, :])
    i, j, k, l = a[first], b[first], a[second], b[second]
    pairings = tuple((p.astype(np.int32), q.astype(np.int32)) for p, q in (
        (first, second), (pair_of[i, k], pair_of[j, l]), (pair_of[i, l], pair_of[j, k])))
    orbit_of = np.empty((len(a), len(a)), dtype=np.int32)
    for p, q in pairings:
        orbit_of[p, q] = orbit_of[q, p] = np.arange(len(first))
    return offsets, pairings, orbit_of


def empirical_fourth_cumulant(data: np.ndarray) -> FourthCumulant:
    """Plug-in fourth cumulant of an n x d sample (d <= 64), on the pair space."""
    data = np.asarray(data, dtype=np.float64)
    n, d = data.shape
    if n < 2:
        raise ValueError("need at least two samples")
    if d > MAX_CUMULANT_DIM:
        raise ValueError(f"d = {d} over the config cap d <= {MAX_CUMULANT_DIM}: the pair-space "
                         f"cumulant alone is {2 * (d * (d + 1)) ** 2 / 2**20:.0f} MiB")
    offsets, pairings, orbit_of = _orbit_indices(d)
    # the centred data, laid out (d, n) as the pair products are: pairs
    # laid out (pairs, rows) make block @ block.T a symmetric rank-k update
    # that OpenBLAS runs several times faster than the
    # (rows, pairs).T @ (rows, pairs) form, which is also slower to fill
    xt = np.subtract(data.T, data.mean(axis=0)[:, None], out=np.empty((d, n)))
    m2 = xt @ xt.T / n
    # at most 2^22 pair products (32 MiB) per block: 4096 rows up to d 44
    rows = min(_MOMENT_BLOCK_ROWS, 2**22 // offsets[-1])
    pairs = np.empty((offsets[-1], min(n, rows)))
    gram = np.zeros((offsets[-1], offsets[-1]))
    for start in range(0, n, rows):
        cols = xt[:, start : start + rows]
        block = pairs[:, : cols.shape[1]]
        for a in range(d):
            np.multiply(cols[a], cols[a:], out=block[offsets[a] : offsets[a + 1]])
        gram += block @ block.T
    moment = sum(gram[p, q] for p, q in pairings) / (3 * n)
    m2p = m2[np.triu_indices(d)]  # m2[i, j] at pair (ij)
    (ij, kl), (ik, jl), (il, jk) = pairings
    vals = moment - (m2p[ij] * m2p[kl] + m2p[ik] * m2p[jl] + m2p[il] * m2p[jk])
    return FourthCumulant(matrix=vals[orbit_of])


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a real vector, bit for bit, without its call overhead."""
    return math.sqrt(v @ v)


CP_RESTARTS = 8
CP_MAX_ITERS = 1000
CP_TOL = 1e-10


def rank1_cp(tensor: FourthCumulant, rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """Best rank-1 symmetric approximation weight*v^(x4) of the cumulant.

    Each of CP_RESTARTS restarts starts from a Gaussian direction drawn
    from `rng` and runs at most CP_MAX_ITERS steps of power iteration on
    sign-corrected T (so the iterated tensor has positive weight along the
    current direction); a step shorter than CP_TOL ends it.  |T(v,v,v,v)|
    is monotone over accepted steps and a decrease beyond tolerance stops
    the restart.  Returns (weight, factor) of the best restart by |weight|;
    a tensor whose every restart contracts to zero gives weight 0.0 and a
    zero factor, and only such a tensor does.
    """
    d = tensor.d
    weight, factor = 0.0, np.zeros(d)
    for _ in range(CP_RESTARTS):
        v = rng.standard_normal(d)
        v /= _norm(v)
        t = tensor.contract3(v)  # T(v,v,v,.) of the current iterate
        gamma = float(t @ v)
        sign = 1.0 if gamma >= 0 else -1.0
        for _ in range(CP_MAX_ITERS):
            w = sign * t
            norm = _norm(w)
            if norm == 0.0:
                break
            w /= norm
            tw = tensor.contract3(w)
            new_gamma = float(tw @ w)
            if abs(new_gamma) < abs(gamma) - 1e-12:
                break  # past the fixed point; keep the previous iterate
            step = min(_norm(w - v), _norm(w + v))
            v, t, gamma = w, tw, new_gamma
            if step < CP_TOL:
                break
        if abs(gamma) > abs(weight):
            weight, factor = gamma, v
    return weight, factor
