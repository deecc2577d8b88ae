"""One-vs-all logistic regression over fixed video features.

Each class gets an independent affine score; there is no coupling between
classes, which makes this the flat reference point for the hierarchical
model. Weights live in a single (C, D+1) array with the bias in the last
column.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .binn import (
    NumericError, _all_finite, _as_batch, _as_multi_hot, _buffer, cross_entropy, sigmoid,
)


@dataclasses.dataclass
class LogRegParams:
    """Per-class affine weights; ``weights[c, -1]`` is the bias of class c."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        # Float weights keep their dtype, which the model then computes in;
        # integer weights become float64.
        weights = np.asarray(self.weights)
        self.weights = weights.astype(np.promote_types(weights.dtype, np.float32), copy=False)
        if self.weights.ndim != 2 or self.weights.shape[1] < 2:
            raise ValueError(f"weights must be (C, D+1), got {self.weights.shape}")

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1] - 1

    @property
    def dtype(self) -> np.dtype:
        return self.weights.dtype

    def tensors(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights}


def init_params(n_classes: int, dim: int, dtype=np.float64) -> LogRegParams:
    """All-zero weights, so every initial probability is exactly 0.5."""
    if n_classes < 1 or dim < 1:
        raise ValueError(f"need positive sizes, got {n_classes} classes, dim {dim}")
    return LogRegParams(np.zeros((n_classes, dim + 1), dtype))


def _with_bias(params: LogRegParams, x, work: dict | None = None) -> np.ndarray:
    """The batch with a column of ones appended, in ``work["xb"]``."""
    x = _as_batch(params, x)
    xb = _buffer({} if work is None else work, "xb", (len(x), params.dim + 1), params.dtype)
    xb[:, :-1] = x
    xb[:, -1] = 1.0
    return xb


def predict(params: LogRegParams, x) -> np.ndarray:
    """(B, C) class probabilities of a batch (B, D); a (D,) vector is a batch of one."""
    x = _as_batch(params, x)
    z = x @ params.weights[:, :-1].T
    z += params.weights[:, -1]
    # Each row's float64 sum is finite exactly when the row is, for float32
    # scores (see ``Shard.features``), so the check holds N sums, not an
    # (N, C) mask. A float64 row whose sum overflows is checked value by value.
    bad = ~np.isfinite(z.sum(axis=1, dtype=np.float64))
    if bad.any() and not np.isfinite(z[bad]).all():
        raise NumericError("non-finite logistic scores")
    return sigmoid(z, out=z)


def loss_grad(
    params: LogRegParams, x, positives, l2_penalty: float = 0.0, work: dict | None = None
) -> tuple[float, np.ndarray]:
    """Summed cross entropy and its exact gradient in one pass.

    ``x`` is a batch (B, D), a (D,) vector being a batch of one, and
    ``positives`` its float or bool (B, C) multi-hot labels; loss and
    gradient are sums over samples. The optional L2 penalty (l2_penalty / 2
    * sum of squared weights) leaves the bias column unpenalized.

    As in ``binn.backward``, everything is computed into the arrays of
    ``work``, which a training loop keeps across calls, the gradient into
    ``work["weights"]``; a later call with the same ``work`` overwrites
    them. With ``work`` None a fresh workspace is used.
    """
    work = {} if work is None else work
    xb = _with_bias(params, x, work)
    shape = (len(xb), params.num_classes)
    y = _as_multi_hot(positives, shape, xb.dtype)
    z, p, tmp = (_buffer(work, key, shape, xb.dtype) for key in ("z", "p", "tmp"))
    np.matmul(xb, params.weights.T, out=z)
    if not _all_finite(z, tmp):
        raise NumericError("non-finite logistic scores")
    sigmoid(z, out=p)
    value = cross_entropy(z, p, y, out=tmp)
    p -= y
    grad = np.matmul(p.T, xb, out=_buffer(work, "weights", params.weights.shape, xb.dtype))
    if l2_penalty:
        value += 0.5 * l2_penalty * float((params.weights[:, :-1] ** 2).sum())
        grad[:, :-1] += l2_penalty * params.weights[:, :-1]
    return value, grad


# Model-family interface for the CLI (see ``cli.MODELS``); only the finest
# layer is trained, and the CLI induces its parent layer's scores from it.
DEFAULT_LR = 0.01
DEFAULT_ITERS = 35000


def init(hierarchy, dim: int, seed: int | None) -> LogRegParams:
    return init_params(hierarchy.sizes[-1], dim, dtype=np.float32)


def train_grads(params: LogRegParams, x, targets, work: dict | None = None) -> tuple[float, dict]:
    """The gradient goes into ``work["weights"]``, so a caller may put its
    own array there (see ``loss_grad``)."""
    value, grad = loss_grad(params, x, targets[-1], work=work)
    return value, {"weights": grad}


def layer_weights(params: LogRegParams, hierarchy) -> dict:
    return {hierarchy.num_layers - 1: params.weights}
