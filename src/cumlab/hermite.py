"""Probabilists' Hermite polynomials and the latent laws' coefficients.

The polynomials h_m are monic and orthogonal under the standard normal
measure:

    (2*pi)^(-1/2) * integral h_n(x) h_m(x) exp(-x^2/2) dx = n! delta_{n,m}

with h_0 = 1, h_1 = x, h_2 = x^2 - 1, h_3 = x^3 - 3x, h_4 = x^4 - 6x^2 + 3.
The exact integer coefficients a_{m,k} of h_m = sum_k a_{m,k} x^k
(`hermite_coefficients`) follow from the three-term recurrence

    h_{m+1}(x) = x * h_m(x) - m * h_{m-1}(x),

read as polynomials.

This module also describes the latent scalar laws used by the spiked data
models: Rademacher(1/2), Uniform(-sqrt(3), sqrt(3)) and the standard
Gaussian.  All three are even with mean 0 and variance 1.  Each is given
once, by its exact moments E[g^k]; its fourth cumulant and its Hermite
coefficient expectations E[h_m(g)] = sum_k a_{m,k} E[g^k] follow from them.
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

# E[h_m(g)] of Rademacher and Uniform g overflows a float from m = 304; a
# Gaussian g's is 0 at every m >= 1
MAX_FLOAT_DEGREE = 303

# Gauss-Legendre nodes of the Uniform rule of the overlap function f
QUADRATURE_NODES = 64

_rows: tuple[tuple[int, ...], ...] = ((1,), (0, 1))  # the table of hermite_coefficients


def hermite_coefficients(m: int) -> tuple[int, ...]:
    """Exact integer coefficients (a_{m,0}, ..., a_{m,m}) of h_m.

    Built from h_m = x h_{m-1} - (m-1) h_{m-2} in one table for the
    process, grown on demand: a longer table replaces the old one whole,
    so no caller sees it half grown.  Python integers lose nothing.
    """
    global _rows
    if m < 0:
        raise ValueError("degree must be nonnegative")
    rows = _rows
    if m >= len(rows):
        grown = list(rows)
        for k in range(len(rows), m + 1):
            # x h_{k-1} has k + 1 coefficients; h_{k-2} has k - 1
            grown.append(tuple(a - (k - 1) * b for a, b in
                               zip((0,) + grown[k - 1], grown[k - 2] + (0, 0))))
        _rows = rows = tuple(grown)
    return rows[m]


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
    """E_{g~dist}[h_m(g)] = sum_k a_{m,k} E[g^k], summed exactly and rounded
    once; cached, as each LDLR point at degree D needs every m <= D."""
    return float(sum(a * dist.moment(k) for k, a in enumerate(hermite_coefficients(m))))
