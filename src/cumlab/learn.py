"""Two-layer ReLU network, random-features ridge, and diagnostics.

The network is phi(x) = v . relu(W x + b) + c, trained by minibatch SGD on
the squared loss (phi - y)^2 against +-1 labels, with L2 weight decay on
both weight matrices (biases are not decayed).  Hidden and output biases
are included: without them the network is positively homogeneous, its
decision is a function of x/|x| only, and the even-in-projection structure
of the whitened cumulant class caps its accuracy near chance regardless of
spike recovery.

Lazy training follows the centred alpha-scaling: for alpha > 1 the model
output is alpha * (phi_theta(x) - phi_theta0(x)) with theta0 frozen at
initialisation and the loss rescaled by 1/alpha^2; alpha = 1 trains the
plain network.

Random features are the frozen-first-layer ablation: the same ReLU and the
same N(0, 1/d) first-layer law, with a ridge readout at regulariser 0.1
solved through the normal equations by numpy's LAPACK solver.  The module
imports no scipy: scipy.linalg loads a second OpenBLAS with its own thread
pool and costs more than the rest of ``import cumlab.cli``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .datagen import DataMatrix
from .rng import generator


@dataclass
class TwoLayerNet:
    """First layer (W, b), readout (v, c); width m = W.shape[0]."""

    W: np.ndarray
    b: np.ndarray
    v: np.ndarray
    c: float = 0.0

    @property
    def width(self) -> int:
        return self.W.shape[0]

    def forward(self, X: np.ndarray) -> np.ndarray:
        return np.maximum(X @ self.W.T + self.b, 0.0) @ self.v + self.c

    def copy(self) -> "TwoLayerNet":
        return TwoLayerNet(self.W.copy(), self.b.copy(), self.v.copy(), self.c)


def init_network(d: int, width: int, rng: np.random.Generator) -> TwoLayerNet:
    """W ~ N(0, 1/d), v ~ N(0, 1/m), biases zero."""
    W = rng.standard_normal((width, d)) / np.sqrt(d)
    v = rng.standard_normal(width) / np.sqrt(width)
    return TwoLayerNet(W=W, b=np.zeros(width), v=v, c=0.0)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.002
    weight_decay: float = 0.002
    epochs: int = 50  # 200 for the spiked cumulant task
    batch_size: int = 128
    alpha_lazy: float = 1.0
    width_factor: int = 5  # hidden neurons per input dimension
    seed: int = 0

    def __post_init__(self):
        if self.alpha_lazy < 1.0:
            raise ValueError("alpha_lazy must be >= 1")


@dataclass
class TrainReport:
    test_accuracy: list[float] = field(default_factory=list)
    overlap_trajectory: list[float] = field(default_factory=list)
    ipr_trajectory: list[float] = field(default_factory=list)
    early_stop_accuracy: float = 0.0


class DivergenceError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training diverged (non-finite loss) at epoch {epoch}")
        self.epoch = epoch


# the largest sum of squares whose square is finite
_MAX_SUM_SQ = math.sqrt(sys.float_info.max)


def _unit_rows(W: np.ndarray) -> np.ndarray:
    """W with each row divided by its largest absolute entry."""
    return W / np.max(np.abs(W), axis=-1, keepdims=True)


def ipr(w: np.ndarray) -> float:
    """Inverse participation ratio sum w_i^4 / (sum w_i^2)^2, in [1/d, 1].

    The ratio is scale-invariant; a vector whose powers would overflow is
    rescaled first, and any other keeps the bits of the plain formula.
    """
    w = np.asarray(w, dtype=np.float64)
    s2 = float(w @ w)
    if s2 == 0.0:
        raise ValueError("IPR of the zero vector is undefined")
    if s2 > _MAX_SUM_SQ:
        w = _unit_rows(w)
        s2 = float(w @ w)
    return float(np.sum(w**4) / s2**2)


def max_spike_overlap(W: np.ndarray, u: np.ndarray) -> float:
    """max_k |w_k . u| / (|w_k| |u|) over hidden rows, skipping zero rows."""
    W = np.atleast_2d(np.asarray(W, dtype=np.float64))
    u = np.asarray(u, dtype=np.float64)
    norms = np.linalg.norm(W, axis=1)
    keep = norms > 0.0
    if not np.any(keep):
        raise ValueError("all hidden rows are zero")
    cos = np.abs(W[keep] @ u) / (norms[keep] * np.linalg.norm(u))
    return float(cos.max())


def _max_ipr(W: np.ndarray) -> float:
    """max of ``ipr`` over the nonzero rows of W; nan if every row is zero.

    A vectorised screen picks the rows within 1e-9 of its maximum, and only
    those are rescored by ``ipr``: the screen's row sums may differ from
    ``ipr``'s in the last bit, so it may select but never decide.
    """
    rows = W[np.any(W, axis=1)]
    if rows.shape[0] == 0:
        return float("nan")
    sq = rows * rows
    s2 = np.sum(sq, axis=1)
    if s2.max() > _MAX_SUM_SQ:  # huge but finite weights: rescale those rows
        big = s2 > _MAX_SUM_SQ
        rows[big] = _unit_rows(rows[big])
        sq = rows * rows
        s2 = np.sum(sq, axis=1)
    screen = np.sum(sq * sq, axis=1) / s2**2
    near = np.flatnonzero(screen >= screen.max() - 1e-9)
    return max(ipr(rows[k]) for k in near)


def _accuracy(net: TwoLayerNet, X, y, hidden, frozen_out, alpha) -> float:
    """Sign-readout accuracy of net (centred-scaled if frozen_out is given).

    Bit-identical to ``net.forward``, computed in the preallocated `hidden`
    buffer of shape (len(X), width) without temporaries.
    """
    np.matmul(X, net.W.T, out=hidden)
    hidden += net.b
    np.maximum(hidden, 0.0, out=hidden)
    out = hidden @ net.v
    out += net.c
    if frozen_out is not None:
        out = alpha * (out - frozen_out)
    return float(np.mean(np.sign(out) == y))


def train_2lnn(
    train: DataMatrix,
    test: DataMatrix,
    u: np.ndarray | None,
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
) -> tuple[TrainReport, TwoLayerNet]:
    """Minibatch SGD on the squared loss; per-epoch test diagnostics.

    The epoch loop and the batch order within an epoch are fixed by the
    generator, so a (data, cfg, seed) triple reproduces the report
    bit-for-bit.  Every alpha trains through ``_kernels.sgd_epoch``; for
    alpha > 1 the frozen initial network is subtracted batch by batch, and
    its test outputs are computed once per call.
    Overlap diagnostics need the true spike u; pass None (e.g. NLGP task)
    to skip them.
    """
    if train.d != test.d:
        raise ValueError("train/test dimensions differ")
    rng = rng if rng is not None else generator(cfg.seed, "train2lnn")
    d = train.d
    net = init_network(d, cfg.width_factor * d, rng)
    net0 = net.copy()
    alpha = cfg.alpha_lazy
    frozen = None if alpha == 1.0 else net0.forward
    X, y = train.values, train.labels
    n = X.shape[0]
    hidden = np.empty((test.values.shape[0], net.width))
    frozen_out = None if alpha == 1.0 else net0.forward(test.values)
    report = TrainReport()
    for epoch in range(cfg.epochs):
        net.c = _kernels.sgd_epoch(
            net.W, net.b, net.v, net.c, X, y, rng.permutation(n),
            cfg.batch_size, cfg.learning_rate, cfg.weight_decay,
            alpha=alpha, frozen=frozen,
        )
        if not (np.all(np.isfinite(net.W)) and np.all(np.isfinite(net.v))):
            raise DivergenceError(epoch)
        report.test_accuracy.append(
            _accuracy(net, test.values, test.labels, hidden, frozen_out, alpha)
        )
        report.overlap_trajectory.append(
            max_spike_overlap(net.W, u) if u is not None else float("nan")
        )
        report.ipr_trajectory.append(_max_ipr(net.W))
    report.early_stop_accuracy = max(report.test_accuracy, default=0.0)
    return report, net


@dataclass(frozen=True)
class RFConfig:
    width: int
    ridge: float = 0.1
    seed: int = 0


def fit_random_features(train: DataMatrix, test: DataMatrix, cfg: RFConfig) -> float:
    """ReLU random-features ridge regression; returns sign-readout accuracy.

    Features are relu(F x) with F drawn once, rows i.i.d. N(0, 1/d); the
    readout solves (Phi^T Phi + ridge I) w = Phi^T y with ``np.linalg.solve``
    (LU with partial pivoting; the ridge keeps the system positive definite).
    """
    if cfg.ridge <= 0:
        raise ValueError("ridge regulariser must be positive")
    d = train.d
    F = generator(cfg.seed, "rf").standard_normal((cfg.width, d)) / np.sqrt(d)
    phi_tr = np.maximum(train.values @ F.T, 0.0)
    phi_te = np.maximum(test.values @ F.T, 0.0)
    gram = phi_tr.T @ phi_tr + cfg.ridge * np.eye(cfg.width)
    w = np.linalg.solve(gram, phi_tr.T @ train.labels)
    return float(np.mean(np.sign(phi_te @ w) == test.labels))
