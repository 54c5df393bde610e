"""Reference computations that only the tests use.

Each computes, by a slower or more explicit route, a quantity that cumlab
obtains another way, so that a test can compare the two.
"""

import io
from math import erf

import numpy as np


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
