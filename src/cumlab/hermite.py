"""Probabilists' Hermite polynomials and latent-distribution coefficients.

The polynomials h_m are monic and orthogonal under the standard normal
measure:

    (2*pi)^(-1/2) * integral h_n(x) h_m(x) exp(-x^2/2) dx = n! delta_{n,m}

with h_0 = 1, h_1 = x, h_2 = x^2 - 1, h_3 = x^3 - 3x, h_4 = x^4 - 6x^2 + 3.
Values are computed with the three-term recurrence

    h_{m+1}(x) = x * h_m(x) - m * h_{m-1}(x),

which is O(m) per point and avoids the catastrophic cancellation of the
large integer coefficients.  The exact coefficient table (HermiteBasis) is
kept separately for identity checks and for closed-form moment sums; its
entries follow

    a_{m+1,0} = -a_{m,1},   a_{m+1,k} = a_{m,k-1} - (k+1) a_{m,k+1}.

This module also describes the latent scalar laws used by the spiked data
models: Rademacher(1/2), Uniform(-sqrt(3), sqrt(3)) and the standard
Gaussian.  All three are even with mean 0 and variance 1, and their Hermite
coefficient expectations E[h_m(g)] are available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

# Degrees above this are refused outright rather than silently losing
# precision in the value recurrence.
DEFAULT_MAX_DEGREE = 64

RADEMACHER = "rademacher"
UNIFORM = "uniform"
STANDARD_GAUSSIAN = "standard_gaussian"

G_KINDS = (RADEMACHER, UNIFORM, STANDARD_GAUSSIAN)

# Gauss-Legendre nodes of the Uniform rule, in the search score and f alike
QUADRATURE_NODES = 64


class DegreeError(ValueError):
    """Requested Hermite degree exceeds the supported table."""


def _coefficient_rows(max_degree: int) -> list[list[int]]:
    """Integer coefficient rows a_{m,k}, k = 0..m, for m = 0..max_degree."""
    rows = [[1]]
    for m in range(max_degree):
        prev = rows[-1]
        nxt = [0] * (m + 2)
        nxt[0] = -prev[1] if m >= 1 else 0
        for k in range(1, m + 2):
            val = prev[k - 1]
            if k + 1 <= m:
                val -= (k + 1) * prev[k + 1]
            nxt[k] = val
        rows.append(nxt)
    return rows


@dataclass(frozen=True)
class HermiteBasis:
    """Exact integer coefficient table of h_0 .. h_{max_degree}.

    The table is exact (Python integers), monic by construction, and is
    meant for small-degree identities and closed-form moment sums; use
    :func:`hermite_eval` for numerical evaluation.
    """

    max_degree: int = DEFAULT_MAX_DEGREE

    def __post_init__(self):
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        object.__setattr__(self, "_rows", _coefficient_rows(self.max_degree))

    def coefficients(self, m: int) -> list[int]:
        """Coefficients [a_{m,0}, ..., a_{m,m}] of h_m, exact integers."""
        self._check_degree(m)
        return list(self._rows[m])

    def _check_degree(self, m: int) -> None:
        if not 0 <= m <= self.max_degree:
            raise DegreeError(
                f"degree {m} outside the built table (max_degree={self.max_degree})"
            )


def hermite_eval(m: int, x) -> float | np.ndarray:
    """Evaluate h_m(x) by the three-term value recurrence.

    Parameters
    ----------
    m : int
        Degree, 0 <= m <= DEFAULT_MAX_DEGREE.
    x : float or ndarray
        Evaluation point(s).

    Returns
    -------
    float or ndarray
        h_m(x), scalar for scalar input.
    """
    if not 0 <= m <= DEFAULT_MAX_DEGREE:
        raise DegreeError(
            f"degree {m} outside supported range [0, {DEFAULT_MAX_DEGREE}]"
        )
    arr = np.asarray(x, dtype=np.float64)
    prev, cur = np.ones_like(arr), arr.copy()
    for k in range(1, m):
        prev, cur = cur, arr * cur - k * prev
    out = cur if m > 0 else prev
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class GDistribution:
    """An admissible latent law: even, mean 0, variance 1.

    lambda_growth is the constant in the coefficient-growth bound
    |E[h_m(g)]| <= lambda_growth^m * m!, and kappa4 the fourth cumulant
    E[g^4] - 3.
    """

    kind: str
    lambda_growth: float
    kappa4: float

    @staticmethod
    def rademacher() -> "GDistribution":
        return GDistribution(RADEMACHER, 1.0, -2.0)

    @staticmethod
    def uniform() -> "GDistribution":
        return GDistribution(UNIFORM, np.sqrt(3.0), -1.2)

    @staticmethod
    def gaussian() -> "GDistribution":
        return GDistribution(STANDARD_GAUSSIAN, 1.0, 0.0)

    @staticmethod
    def from_kind(kind: str) -> "GDistribution":
        if kind not in G_KINDS:
            raise ValueError(f"unknown g distribution {kind!r}; expected one of {G_KINDS}")
        return {
            RADEMACHER: GDistribution.rademacher,
            UNIFORM: GDistribution.uniform,
            STANDARD_GAUSSIAN: GDistribution.gaussian,
        }[kind]()

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == RADEMACHER:
            return rng.choice(np.array([-1.0, 1.0]), size=n)
        if self.kind == UNIFORM:
            s = np.sqrt(3.0)
            return rng.uniform(-s, s, size=n)
        return rng.standard_normal(n)


@cache
def uniform_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (g_i, w_i) with E[F(g)] ~= sum_i w_i F(g_i) for
    Uniform(-sqrt 3, sqrt 3) g, read-only.

    The QUADRATURE_NODES-node Gauss-Legendre rule on the support, built on
    first use, so that `import cumlab.cli` does not load numpy.polynomial.
    """
    x, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    nodes, weights = np.sqrt(3.0) * x, w / 2.0  # density 1/(2 sqrt 3) times Jacobian sqrt 3
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def hermite_coeff_expectation(dist: GDistribution, m: int) -> float:
    """E_{g~dist}[h_m(g)], exact up to float rounding.

    Rademacher: h_m(1) for even m (exact integers), 0 for odd m.
    Uniform(-sqrt 3, sqrt 3): rational moment sum, E[g^{2j}] = 3^j/(2j+1).
    Standard Gaussian: delta_{m,0} by orthogonality.
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    if dist.kind == STANDARD_GAUSSIAN:
        return 1.0 if m == 0 else 0.0
    if m % 2 == 1:
        return 0.0  # even distribution kills odd degrees
    if dist.kind == RADEMACHER:
        # integer recurrence for h_m(1): exact at every degree
        prev, cur = 1, 1
        if m == 0:
            return 1.0
        for k in range(1, m):
            prev, cur = cur, cur - k * prev
        return float(cur)
    if dist.kind == UNIFORM:
        coeffs = _coefficient_rows(m)[m]
        total = Fraction(0)
        for k in range(0, m + 1, 2):
            total += Fraction(coeffs[k]) * Fraction(3 ** (k // 2), k + 1)
        return float(total)
    raise ValueError(f"unknown g distribution kind {dist.kind!r}")
