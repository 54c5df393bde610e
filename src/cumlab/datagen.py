"""Samplers for the input model zoo and the dataset file formats.

Input models, all in dimension d (spiked ones carry a spike u of norm
sqrt(d)):

* Null            -- z ~ N(0, 1_d).
* SpikedWishart   -- x = sqrt(beta/d) g u + z with g ~ N(0,1); covariance
                     1 + beta u u^T / d.
* SpikedCumulant  -- same construction with non-Gaussian g, then whitened
                     by S = 1 - beta/(1+beta+sqrt(1+beta)) u u^T / d so the
                     population covariance is exactly the identity.  Rows
                     are drawn through the O(d) closed form
                         x = z_perp + (sqrt(1-eta^2) ubar.z + eta g) ubar,
                     eta = sqrt(beta/(1+beta)), which equals S applied to
                     the raw sample without materialising S.
* NLGP            -- translation-invariant Gaussian field with covariance
                     C_ij = exp(-|i-j|/xi) pushed through x_i =
                     erf(g z_i)/Z(g), Z chosen so E x_i^2 = 1, from the
                     closed form Z(g)^2 = (2/pi) asin(2 g^2/(1+2 g^2)).
* GPMatch         -- Gaussian with the NLGP output covariance
                     Sigma_ij = (2/pi) asin(2 g^2 C_ij/(1+2 g^2)) / Z(g)^2.

Generation is deterministic given (spec, n, seed): rows are produced in
fixed-size blocks, each block from its own counter-derived Philox stream,
so blocks can be generated in any order or in parallel with identical
output.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .hermite import GDistribution
from .rng import block_generator, spawn_seed

NULL = "null"
SPIKED_WISHART = "spiked_wishart"
SPIKED_CUMULANT = "spiked_cumulant"
NLGP = "nlgp"
GP_MATCH = "gp_match"

KINDS = (NULL, SPIKED_WISHART, SPIKED_CUMULANT, NLGP, GP_MATCH)

_BLOCK_ROWS = 65536

_BINARY_MAGIC = b"CUMLAB01"


@dataclass(frozen=True)
class ModelSpec:
    """Full description of one input class."""

    kind: str
    d: int
    beta: float = 0.0
    g_dist: GDistribution | None = None
    spike: np.ndarray | None = None  # entries +-1, norm sqrt(d)
    gain: float = 1.0
    xi: float = 1.0
    periodic: bool = False  # NLGP index distance; open boundary by default

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {KINDS}")
        if self.d < 1:
            raise ValueError("dimension d must be >= 1")
        if not np.isfinite(self.beta) or self.beta < 0:
            raise ValueError("beta must be finite and >= 0")
        if self.kind == SPIKED_CUMULANT and self.g_dist is None:
            raise ValueError("spiked_cumulant requires a g distribution")
        if self.kind in (NLGP, GP_MATCH) and (self.gain <= 0 or self.xi <= 0):
            raise ValueError("NLGP needs gain > 0 and length scale xi > 0")
        if self.spike is not None:
            u = np.asarray(self.spike, dtype=np.float64)
            if u.shape != (self.d,):
                raise ValueError("spike must be a d-vector")
            if not np.all(np.abs(u) == 1.0):
                raise ValueError("spike entries must be +-1 (norm sqrt(d))")
            object.__setattr__(self, "spike", u)


@dataclass
class DataMatrix:
    """n x d sample matrix with per-row labels and provenance."""

    values: np.ndarray
    labels: np.ndarray
    seed: int | None = None
    spec_pair: tuple[ModelSpec, ModelSpec] | None = None

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def draw_spike(d: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. fair +-1 spike; norm is exactly sqrt(d)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return rng.choice(np.array([-1.0, 1.0]), size=d)


def erf_variance_closed_form(gain: float) -> float:
    """Closed form (2/pi) asin(2 g^2 / (1 + 2 g^2)) for E[erf(g z)^2]."""
    g2 = gain * gain
    return 2.0 / np.pi * np.arcsin(2.0 * g2 / (1.0 + 2.0 * g2))


def nlgp_latent_covariance(d: int, xi: float, periodic: bool = False) -> np.ndarray:
    """C_ij = exp(-|i-j|/xi), with optional periodic index distance."""
    idx = np.arange(d)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
    if periodic:
        dist = np.minimum(dist, d - dist)
    return np.exp(-dist / xi)


def nlgp_output_covariance(spec: ModelSpec) -> np.ndarray:
    """Covariance of the erf-saturated field: the GPMatch class target.

    Sigma_ij = (2/pi) asin(2 g^2 C_ij / (1 + 2 g^2)) / Z(g)^2, which has
    unit diagonal by the choice of Z.
    """
    c = nlgp_latent_covariance(spec.d, spec.xi, spec.periodic)
    g2 = spec.gain**2
    z2 = erf_variance_closed_form(spec.gain)
    return 2.0 / np.pi * np.arcsin(2.0 * g2 * c / (1.0 + 2.0 * g2)) / z2


def _cholesky_or_raise(cov: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # locate the first non-PD leading minor for the error message
        k = cov.shape[0]
        for j in range(1, cov.shape[0] + 1):
            if np.linalg.eigvalsh(cov[:j, :j]).min() <= 0:
                k = j
                break
        raise ValueError(
            f"{what} covariance is not positive definite "
            f"(leading minor of order {k}); increase xi or reduce d"
        ) from None


class _Sampler:
    """Per-spec precomputation shared by all blocks."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        if spec.kind in (SPIKED_WISHART, SPIKED_CUMULANT):
            if spec.spike is None:
                raise ValueError(f"{spec.kind} requires an explicit spike")
            self.ubar = spec.spike / np.sqrt(spec.d)
        if spec.kind == NLGP:
            cov = nlgp_latent_covariance(spec.d, spec.xi, spec.periodic)
            self.chol = _cholesky_or_raise(cov, "NLGP latent")
            self.znorm = np.sqrt(erf_variance_closed_form(spec.gain))
        if spec.kind == GP_MATCH:
            self.chol = _cholesky_or_raise(nlgp_output_covariance(spec), "GPMatch")

    def block(self, n_rows: int, rng: np.random.Generator) -> np.ndarray:
        spec = self.spec
        if spec.kind == NULL:
            return rng.standard_normal((n_rows, spec.d))
        if spec.kind == SPIKED_WISHART:
            z = rng.standard_normal((n_rows, spec.d))
            g = rng.standard_normal(n_rows)
            return z + np.sqrt(spec.beta / spec.d) * np.outer(g, spec.spike)
        if spec.kind == SPIKED_CUMULANT:
            z = rng.standard_normal((n_rows, spec.d))
            g = spec.g_dist.sample(n_rows, rng)
            eta = np.sqrt(spec.beta / (1.0 + spec.beta))
            t = z @ self.ubar
            coef = (np.sqrt(1.0 - eta * eta) - 1.0) * t + eta * g
            return z + np.outer(coef, self.ubar)
        if spec.kind == NLGP:
            # imported here: scipy.special pulls in numpy's array-API shim,
            # which costs more than the rest of cumlab's import together
            from scipy.special import erf as erf_vec

            z = rng.standard_normal((n_rows, spec.d)) @ self.chol.T
            return erf_vec(spec.gain * z) / self.znorm
        if spec.kind == GP_MATCH:
            return rng.standard_normal((n_rows, spec.d)) @ self.chol.T
        raise AssertionError(spec.kind)


def sample_class(spec: ModelSpec, n: int, seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """Draw n rows of the given class, bit-reproducible from the seed.

    Rows are generated in blocks of 65536, each block from its own
    counter-derived stream, so generation order cannot affect the output.
    The rows fill `out`, an (n, d) float64 array, when one is given.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sampler = _Sampler(spec)
    if out is None:
        out = np.empty((n, spec.d))
    for b, start in enumerate(range(0, n, _BLOCK_ROWS)):
        stop = min(start + _BLOCK_ROWS, n)
        out[start:stop] = sampler.block(stop - start, block_generator(seed, b))
    return out


def null_spec(d: int) -> ModelSpec:
    return ModelSpec(kind=NULL, d=d)


def make_dataset(
    pos: ModelSpec,
    n_per_class: int,
    seed: int,
    neg: ModelSpec | None = None,
) -> DataMatrix:
    """Balanced two-class sample: label +1 from `pos`, -1 from `neg`.

    The negative class defaults to the isotropic Gaussian null.
    """
    if neg is None:
        neg = null_spec(pos.d)
    if neg.d != pos.d:
        raise ValueError("class dimensions differ")
    values = np.empty((2 * n_per_class, pos.d))
    sample_class(pos, n_per_class, spawn_seed(seed, "pos"), out=values[:n_per_class])
    sample_class(neg, n_per_class, spawn_seed(seed, "neg"), out=values[n_per_class:])
    labels = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return DataMatrix(values=values, labels=labels, seed=seed, spec_pair=(pos, neg))


# ---------------------------------------------------------------------------
# Dataset export: CSV and a compact binary layout.  Both round-trip the
# (labels, values) payload bit-exactly.  Binary layout: 16-byte header
# (8-byte magic, uint32 n, uint32 d, little-endian), then n float64 labels,
# then the n x d row-major float64 value block.
# ---------------------------------------------------------------------------

# The CSV goes out a block of rows at a time, about this many values per
# block, so the writer's memory depends on neither n nor d.
_CSV_BLOCK_VALUES = 2**16


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Yield a file open for writing that replaces `path` when the block ends.

    The data goes to a temp file in the same directory, which is renamed
    onto `path` only after a clean exit and deleted on any exception, so
    `path` never holds a partial file.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _csv_block(rows: np.ndarray) -> str:
    """The CSV lines of `rows`, each value its `repr`, from one orjson call.

    orjson picks the digits `repr` picks, but writes no exponent where `repr`
    does (0 < |x| < 1e-4, |x| >= 1e16) and `null` for NaN and +-inf.  Rows
    holding such a value are written again with `repr`; the mask's
    ~(|x| < 1e16) is true for NaN as well.
    """
    import orjson  # imported here, so that `import cumlab.cli` does not load it

    lines = orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode().split("],[")
    size = np.abs(rows)
    for i in np.flatnonzero(((size < 1e-4) & (rows != 0) | ~(size < 1e16)).any(axis=1)):
        lines[i] = ",".join(map(repr, rows[i].tolist()))
    return "\n".join(lines) + "\n"


def write_csv(data: DataMatrix, path) -> None:
    d = data.d
    block = max(1, _CSV_BLOCK_VALUES // (d + 1))
    with atomic_open(path) as fh:
        fh.write("label," + ",".join(f"x_{i}" for i in range(d)) + "\n")
        for start in range(0, data.n, block):
            fh.write(_csv_block(np.column_stack((data.labels[start:start + block],
                                                 data.values[start:start + block]))))


def read_csv(path) -> DataMatrix:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "label":
            raise ValueError(f"{path}: not a cumlab dataset CSV")
        arr = np.loadtxt(fh, delimiter=",", ndmin=2)
    return DataMatrix(values=arr[:, 1:], labels=arr[:, 0])


def write_binary(data: DataMatrix, path) -> None:
    n, d = data.values.shape
    with atomic_open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<II", n, d))
        fh.write(memoryview(np.ascontiguousarray(data.labels, dtype="<f8")))
        fh.write(memoryview(np.ascontiguousarray(data.values, dtype="<f8")))


def read_binary(path) -> DataMatrix:
    """Read a binary dataset straight into its label and value arrays."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _BINARY_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        header = fh.read(8)
        if len(header) < 8:
            raise ValueError(f"{path}: truncated file, no n and d after the magic")
        n, d = struct.unpack("<II", header)
        labels, values = np.empty(n, dtype="<f8"), np.empty((n, d), dtype="<f8")
        for arr in (labels, values):
            if fh.readinto(arr) < arr.nbytes:
                raise ValueError(f"{path}: truncated file, shorter than its header's "
                                 f"n = {n}, d = {d}")
    return DataMatrix(values=values, labels=labels)
