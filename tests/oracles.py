"""Reference computations that only the tests use.

Each computes, by a slower or more explicit route, a quantity that cumlab
obtains another way, so that a test can compare the two.
"""

import io
import itertools
from math import erf

import numpy as np

from cumlab.cumtensor import FourthCumulant


def whitening_matrix(u: np.ndarray, beta: float) -> np.ndarray:
    """S = 1 - beta/(1+beta+sqrt(1+beta)) u u^T / d.

    Symmetric positive definite with S (1 + beta u u^T / d) S = 1; the
    eigenvalue along u is 1/sqrt(1+beta), all others are 1.  The
    spiked-cumulant sampler applies S through a closed form instead.
    """
    if not np.isfinite(beta) or beta < 0:
        raise ValueError("beta must be finite and >= 0")
    u = np.asarray(u, dtype=np.float64)
    d = u.shape[0]
    if not np.isclose(u @ u, d):
        raise ValueError("spike must have norm sqrt(d)")
    coef = beta / (1.0 + beta + np.sqrt(1.0 + beta))
    return np.eye(d) - coef * np.outer(u, u) / d


def erf_variance_quadrature(gain: float) -> float:
    """E[erf(g z)^2] for z ~ N(0,1) by adaptive quadrature.

    Fixed-order Gauss-Hermite under-resolves the erf transition once the
    gain exceeds ~2 (64 nodes are 2e-3 off at gain 3); adaptive
    Gauss-Kronrod on the half line resolves every gain to near machine
    precision.  The NLGP sampler uses the closed form instead.
    """
    from scipy.integrate import quad

    val, _err = quad(
        lambda z: erf(gain * z) ** 2 * np.exp(-0.5 * z * z),
        0.0,
        np.inf,
        epsabs=1e-14,
        epsrel=1e-12,
    )
    return float(2.0 * val / np.sqrt(2.0 * np.pi))


def abs_coefficient_sum(basis, m: int) -> int:
    """S_m = sum_k |a_{m,k}| of a HermiteBasis row; satisfies S_m <= m!."""
    return sum(abs(c) for c in basis.coefficients(m))


def eval_exact(basis, m: int, x: int) -> int:
    """h_m at an integer point, in exact integer arithmetic."""
    return sum(c * x**k for k, c in enumerate(basis.coefficients(m)))


def write_csv_unbuffered(data, path) -> None:
    """The dataset CSV, built one value at a time in one in-memory string.

    Each value is written as repr(float(v)); the whole file is held in
    memory before it is written.  `datagen.write_csv` streams the same
    bytes a block of rows at a time.
    """
    d = data.d
    header = "label," + ",".join(f"x_{i}" for i in range(d))
    buf = io.StringIO()
    buf.write(header + "\n")
    for lab, row in zip(data.labels, data.values):
        buf.write(repr(float(lab)))
        for v in row:
            buf.write("," + repr(float(v)))
        buf.write("\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def _pair_table(d: int) -> np.ndarray:
    """The symmetric d x d table of pair numbers, pairs a <= b in row-major order."""
    a, b = np.triu_indices(d)
    table = np.empty((d, d), dtype=np.intp)
    table[a, b] = table[b, a] = np.arange(len(a))
    return table


def full_tensor(k: FourthCumulant) -> np.ndarray:
    """The (d, d, d, d) tensor of a pair-space cumulant: entry ijkl is K[(ij), (kl)]."""
    table = _pair_table(k.d)
    return k.matrix[table[:, :, None, None], table[None, None, :, :]]


def from_full(t: np.ndarray) -> FourthCumulant:
    """The pair-space cumulant of a full symmetric tensor: its (i <= j, k <= l) block."""
    a, b = np.triu_indices(t.shape[0])
    return FourthCumulant(np.ascontiguousarray(t[a, b][:, a, b]))


def orbit_tensor(d: int, vals: np.ndarray) -> np.ndarray:
    """The (d, d, d, d) tensor with one value per sorted index orbit
    i <= j <= k <= l (`vals`, in itertools.combinations_with_replacement
    order) scattered to all 24 permutations, so it is exactly symmetric."""
    quad = np.array(list(itertools.combinations_with_replacement(range(d), 4))).T
    out = np.empty((d,) * 4)
    for p in itertools.permutations(quad):
        out[p] = vals
    return out


def contract3_full(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T(v, v, v, .) of a full tensor: three matrix-vector products that read all d^4 entries."""
    d = t.shape[0]
    x = t.reshape(d**3, d) @ v
    x = x.reshape(d * d, d) @ v
    return x.reshape(d, d) @ v


def contract4(k: FourthCumulant, v: np.ndarray) -> float:
    """T(v, v, v, v)."""
    return float(k.contract3(v) @ v)
