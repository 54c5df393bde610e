"""Two-layer ReLU network, random-features ridge, and diagnostics.

The network is phi(x) = v . relu(W x + b) + c, trained by minibatch SGD on
the squared loss (phi - y)^2 against +-1 labels y, with L2 weight decay on
both weight matrices (biases are not decayed).  Hidden and output biases
are included: without them the network is positively homogeneous, its
decision is a function of x/|x| only, and the even-in-projection structure
of the whitened cumulant class caps its accuracy near chance regardless of
spike recovery.

Lazy training follows the centred alpha-scaling: for alpha > 1 the model
output is alpha * (phi_theta(x) - phi_theta0(x)) with theta0 the initial
parameters and the loss rescaled by 1/alpha^2; alpha = 1 trains the plain
network.  As (1/alpha^2)(alpha (phi - phi0) - y)^2 = (phi - (y/alpha + phi0))^2,
a lazy run is a plain run on the shifted targets y/alpha + phi0(x), with the
same gradient in every parameter, so one SGD epoch serves every alpha.
``TwoLayerNet.forward`` is the one forward pass: it gives the per-epoch test
outputs and the initial network's outputs alike.  ``train_2lnn`` takes every
hyperparameter as a keyword with no default; the train-sweep `train` keys
hold the defaults, and the runner sets `epochs` by task.

Random features are the fixed-first-layer ablation: the same ReLU and the
same N(0, 1/d) first-layer law, with a ridge readout solved through the
normal equations by numpy's LAPACK solver; its regulariser is the
train-sweep key `rf_ridge`, 0.1 by default.  The fixed first layer and
the readout make a ``TwoLayerNet``, whose blocked forward pass scores the
test set, so no (test rows, width) array is made.  The module imports no
scipy: scipy.linalg loads a second OpenBLAS with its own thread pool and
costs more than the rest of ``import cumlab.cli``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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

    def forward(self, X: np.ndarray) -> np.ndarray:
        """phi of each row of X; at one BLAS thread, the bits of the
        whole-array expression relu(X W^T + b) . v + c.

        The hidden layer is computed a block of rows at a time in one reused
        buffer (see ``_kernels.row_blocks``), never as one (len(X), width)
        array.
        """
        out = np.empty(X.shape[0])
        for rows, h in _kernels.row_blocks(X.shape[0], self.W.shape[0]):
            np.matmul(X[rows], self.W.T, out=h)
            h += self.b
            np.maximum(h, 0.0, out=h)
            np.matmul(h, self.v, out=out[rows])
        out += self.c
        return out


def init_network(d: int, width: int, rng: np.random.Generator) -> TwoLayerNet:
    """W ~ N(0, 1/d), v ~ N(0, 1/m), biases zero."""
    W = rng.standard_normal((width, d)) / np.sqrt(d)
    v = rng.standard_normal(width) / np.sqrt(width)
    return TwoLayerNet(W=W, b=np.zeros(width), v=v, c=0.0)


class DivergenceError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training diverged (non-finite loss) at epoch {epoch}")
        self.epoch = epoch


# the sums of squares whose squares are finite and normal
_MIN_SUM_SQ = math.sqrt(sys.float_info.min)
_MAX_SUM_SQ = math.sqrt(sys.float_info.max)


def ipr(w: np.ndarray) -> float | np.ndarray:
    """Inverse participation ratio sum w_i^4 / (sum w_i^2)^2, in [1/d, 1], of a
    vector, or of each row of a matrix.

    The ratio is scale-invariant; a row whose powers would overflow or
    underflow is first divided by its largest absolute entry, and any other
    keeps the bits of the plain formula, so a row's IPR does not depend on the
    rows beside it.
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.any(w, axis=-1)):
        raise ValueError("IPR of the zero vector is undefined")
    sq = w * w
    s2 = np.sum(sq, axis=-1)
    odd = (s2 < _MIN_SUM_SQ) | (s2 > _MAX_SUM_SQ)
    if np.any(odd):
        w = np.where(odd[..., None], w / np.max(np.abs(w), axis=-1, keepdims=True), w)
        sq = w * w
        s2 = np.sum(sq, axis=-1)
    out = np.sum(sq * sq, axis=-1) / (s2 * s2)
    return float(out) if out.ndim == 0 else out


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
    """max of ``ipr`` over the nonzero rows of W; nan if every row is zero."""
    rows = W[np.any(W, axis=1)]
    return float(ipr(rows).max()) if len(rows) else float("nan")


def train_2lnn(
    train: DataMatrix, test: DataMatrix, u: np.ndarray | None, *, epochs: int, batch_size: int,
    learning_rate: float, weight_decay: float, width_factor: int, alpha_lazy: float, seed: int,
) -> tuple[dict[str, list[float]], TwoLayerNet]:
    """Minibatch SGD on the squared loss; returns the per-epoch test curves
    ``{"test_acc", "max_overlap", "max_ipr"}`` and the trained network.

    The network has ``width_factor * d`` hidden neurons.  It and the batch
    order of every epoch come from ``generator(seed, "train2lnn")``, so the
    same data and arguments reproduce the curves bit-for-bit.  Every alpha
    trains through ``_kernels.sgd_epoch``: alpha = 1 on the labels y
    themselves, alpha > 1 on the targets y/alpha + phi0(x), computed once
    per call from the initial network phi0.  An epoch's test accuracy is
    the sign readout of phi at alpha = 1 and of phi - phi0 at alpha > 1,
    which has the sign of the centred-scaled output alpha * (phi - phi0).
    The overlap curve needs the true spike u; with u None (e.g. NLGP task)
    it is nan.
    """
    if train.d != test.d:
        raise ValueError("train/test dimensions differ")
    if alpha_lazy < 1.0:
        raise ValueError("alpha_lazy must be >= 1")
    rng = generator(seed, "train2lnn")
    d = train.d
    net = init_network(d, width_factor * d, rng)
    X, y = train.values, train.labels
    n = X.shape[0]
    test_offset = 0.0
    if alpha_lazy != 1.0:
        y = y / alpha_lazy + net.forward(X)
        test_offset = net.forward(test.values)
    curves = {"test_acc": [], "max_overlap": [], "max_ipr": []}
    for epoch in range(epochs):
        net.c = _kernels.sgd_epoch(
            net.W, net.b, net.v, net.c, X, y, rng.permutation(n),
            batch_size, learning_rate, weight_decay,
        )
        if not (np.all(np.isfinite(net.W)) and np.all(np.isfinite(net.v))):
            raise DivergenceError(epoch)
        out = net.forward(test.values) - test_offset
        curves["test_acc"].append(float(np.mean(np.sign(out) == test.labels)))
        curves["max_overlap"].append(max_spike_overlap(net.W, u) if u is not None else np.nan)
        curves["max_ipr"].append(_max_ipr(net.W))
    return curves, net


def fit_random_features(
    train: DataMatrix, test: DataMatrix, width: int, ridge: float, seed: int
) -> float:
    """ReLU random-features ridge regression; returns sign-readout accuracy.

    Features are relu(F x) with F, `width` rows i.i.d. N(0, 1/d), drawn
    from ``generator(seed, "rf")``; the readout solves
    (Phi^T Phi + ridge I) w = Phi^T y with ``np.linalg.solve`` (LU with
    partial pivoting; the ridge keeps the system positive definite).  The
    test set is scored by the network relu(F x) . w, through the blocked
    ``TwoLayerNet.forward``, so no (test rows, width) array is made.
    """
    if ridge <= 0:
        raise ValueError("ridge regulariser must be positive")
    d = train.d
    F = generator(seed, "rf").standard_normal((width, d)) / np.sqrt(d)
    phi = train.values @ F.T
    np.maximum(phi, 0.0, out=phi)
    w = np.linalg.solve(phi.T @ phi + ridge * np.eye(width), phi.T @ train.labels)
    del phi  # the training features go before the test pass
    out = TwoLayerNet(W=F, b=np.zeros(width), v=w).forward(test.values)
    return float(np.mean(np.sign(out) == test.labels))
