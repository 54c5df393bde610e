"""Probabilists' Hermite polynomials and the latent laws' coefficients.

The polynomials h_m are monic and orthogonal under the standard normal
measure:

    (2*pi)^(-1/2) * integral h_n(x) h_m(x) exp(-x^2/2) dx = n! delta_{n,m}

with h_0 = 1, h_1 = x, h_2 = x^2 - 1, h_3 = x^3 - 3x, h_4 = x^4 - 6x^2 + 3.
The exact integer coefficients of h_m = sum_k a_{m,k} x^k are

    a_{m,m-2j} = (-1)^j m! / (j! (m-2j)! 2^j),   j = 0, ..., floor(m/2),

and 0 at every k of the other parity than m.

This module also describes the latent scalar laws used by the spiked data
models: Rademacher(1/2), Uniform(-sqrt(3), sqrt(3)) and the standard
Gaussian.  All three are even with mean 0 and variance 1.  Each is given
once, by its exact moments E[g^k]; its fourth cumulant and its Hermite
coefficient expectations E[h_m(g)] = sum_k a_{m,k} E[g^k] follow from them,
and so does the degree from which E[h_m(g)] overflows a float: 304 for
Rademacher and Uniform g, none for Gaussian g (0 at every m >= 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

RADEMACHER = "rademacher"
UNIFORM = "uniform"
STANDARD_GAUSSIAN = "standard_gaussian"

G_KINDS = (RADEMACHER, UNIFORM, STANDARD_GAUSSIAN)

# Gauss-Legendre nodes of the Uniform rule of the overlap function f
QUADRATURE_NODES = 64


@dataclass(frozen=True)
class GDistribution:
    """An admissible latent law: even, mean 0, variance 1.

    `kind` is one of G_KINDS, checked here.  lambda_growth is the constant
    in the coefficient-growth bound |E[h_m(g)]| <= lambda_growth^m * m!,
    and kappa4 the fourth cumulant E[g^4] - 3.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in G_KINDS:
            raise ValueError(f"unknown g distribution {self.kind!r}; expected one of {G_KINDS}")

    @staticmethod
    def from_kind(kind: str) -> "GDistribution":
        return GDistribution(kind)

    def moment(self, k: int) -> Fraction:
        """E[g^k], exact: 0 for odd k; for even k 1 (Rademacher),
        3^(k/2)/(k+1) (Uniform) or (k-1)!! (Gaussian)."""
        if k % 2:
            return Fraction(0)
        if self.kind == RADEMACHER:
            return Fraction(1)
        if self.kind == UNIFORM:
            return Fraction(3 ** (k // 2), k + 1)
        return Fraction(math.prod(range(k - 1, 0, -2)))

    @property
    def kappa4(self) -> float:
        return float(self.moment(4) - 3)

    @property
    def lambda_growth(self) -> float:
        return math.sqrt(3.0) if self.kind == UNIFORM else 1.0

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
    Uniform(-sqrt 3, sqrt 3) g, read-only: the rule over whose tensor
    product `likelihood.f_overlap` sums f for Uniform g.

    The QUADRATURE_NODES-node Gauss-Legendre rule on the support, built on
    first use, so that `import cumlab.cli` does not load numpy.polynomial.
    """
    x, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    nodes, weights = np.sqrt(3.0) * x, w / 2.0  # density 1/(2 sqrt 3) times Jacobian sqrt 3
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@cache
def hermite_coeff_expectation(dist: GDistribution, m: int) -> float:
    """E_{g~dist}[h_m(g)] = sum_j a_{m,m-2j} E[g^(m-2j)], summed exactly and
    rounded once; OverflowError where that is past the float range.  Cached,
    as each LDLR point at degree D needs every m <= D."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    total, a = 0, 1  # a = a_{m,m-2j}, each from the last by an exact integer division
    for k in range(m, -1, -2):
        total += a * dist.moment(k)
        a = -a * k * (k - 1) // (m - k + 2)
    return float(total)
