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
                     erf is `_erf`, a numpy port of scipy's Cephes erf.
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


# Cephes ndtr.c, as scipy.special.erf: x T(x^2)/U(x^2) for |x| <= 1, 1 - exp(-x^2) P(|x|)/Q(|x|)
# below 8, and +-1 from 8 on, where Cephes' erfc (R/S fit, 0 past x^2 > MAXLOG) is < 1.2e-29.
# U and Q lead with p1evl's implied 1: 1 * x is exact, so Horner's rule rounds as p1evl does.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2, 1.82390916687909736289e3,
           2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)


def _polevl(x: np.ndarray, coefs: tuple, out: np.ndarray) -> None:
    """Horner's rule into `out`, rounding as Cephes' polevl does."""
    out.fill(coefs[0])
    for c in coefs[1:]:
        np.multiply(out, x, out=out)
        np.add(out, c, out=out)


def _erf(x: np.ndarray) -> None:
    """erf of a (rows, d) float64 array, in place: scipy.special.erf to 1 ulp, as numpy's
    exp may differ from libm's in the last bit.  Both fits run on every value, and the
    one for its range is kept, so no value is gathered."""
    rows = max(1, 2**14 // x.shape[1])  # 16k values a pass: the scratch stays in L2
    scratch = np.empty((4, *x[:rows].shape))
    with np.errstate(all="ignore"):  # exp underflows; 0 * inf at +-inf is overwritten
        for start in range(0, len(x), rows):
            v = x[start:start + rows]
            ax, sq, p, q = scratch[:, : len(v)]
            np.abs(v, out=ax)
            np.multiply(v, v, out=sq)
            _polevl(ax, _ERFC_P, p)
            _polevl(ax, _ERFC_Q, q)
            np.exp(np.negative(sq, out=ax), out=ax)
            np.multiply(ax, p, out=ax)
            np.divide(ax, q, out=ax)
            np.subtract(1.0, ax, out=ax)
            np.copyto(ax, 1.0, where=sq >= 64.0)
            np.copysign(ax, v, out=ax)
            _polevl(sq, _ERF_T, p)
            _polevl(sq, _ERF_U, q)
            np.multiply(v, p, out=p)
            np.divide(p, q, out=p)
            np.copyto(ax, p, where=sq <= 1.0)
            np.copyto(v, ax)


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

    def block(self, out: np.ndarray, rng: np.random.Generator) -> None:
        """Fill the (rows, d) array `out`; at most one other (rows, d) array is made."""
        spec = self.spec
        if spec.kind in (NLGP, GP_MATCH):
            np.matmul(rng.standard_normal(out.shape), self.chol.T, out=out)
            if spec.kind == NLGP:
                # cumlab's erf: importing scipy.special costs about 0.2 s and 20 MB RSS on 2 vCPUs
                out *= spec.gain
                _erf(out)
                out /= self.znorm
            return
        rng.standard_normal(out=out)
        if spec.kind == SPIKED_WISHART:
            # spike entries are +-1, so scaling g before the outer product rounds the same
            out += np.outer(np.sqrt(spec.beta / spec.d) * rng.standard_normal(len(out)), spec.spike)
        elif spec.kind == SPIKED_CUMULANT:
            g = spec.g_dist.sample(len(out), rng)
            eta = np.sqrt(spec.beta / (1.0 + spec.beta))
            t = out @ self.ubar
            coef = (np.sqrt(1.0 - eta * eta) - 1.0) * t + eta * g
            out += np.outer(coef, self.ubar)


def sample_class(spec: ModelSpec, n: int, seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """Draw n rows of the given class, bit-reproducible from the seed.

    Rows are generated in blocks of 65536, each block from its own
    counter-derived stream, so generation order cannot affect the output.
    The rows fill `out`, a C-contiguous (n, d) float64 array, if given.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sampler = _Sampler(spec)
    if out is None:
        out = np.empty((n, spec.d))
    elif out.shape != (n, spec.d) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape ({n}, {spec.d})")
    for b, start in enumerate(range(0, n, _BLOCK_ROWS)):
        sampler.block(out[start:start + _BLOCK_ROWS], block_generator(seed, b))
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
