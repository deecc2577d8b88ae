"""Bidirectional label-space inference with exact analytic gradients.

Each concept layer t (coarse to fine, sizes n_0..n_{m-1}) gets its own
affine projection of the shared input feature vector into label space:

    x_t = proj_w[t] @ x + proj_b[t]                      (n_t,)

Two directional chains pass messages between adjacent layers:

    fwd[0] = fwd_h[0] @ x_0 + fwd_b[0]
    fwd[t] = fwd_v[t] @ fwd[t-1] + fwd_h[t] @ x_t + fwd_b[t]
    bwd[m-1] = bwd_h[m-1] @ x_{m-1} + bwd_b[m-1]
    bwd[t] = bwd_v[t] @ bwd[t+1] + bwd_h[t] @ x_t + bwd_b[t]

and are merged per label with elementwise gate vectors:

    a[t] = agg_fwd_u[t] * fwd[t] + agg_bwd_u[t] * bwd[t] + agg_b[t]
    p[t] = sigmoid(a[t])

The loss is the multi-label cross entropy summed over layers, labels, and
samples. Gradients are derived by hand and computed with batched matrix
products; ``backward`` never falls back to numeric differentiation.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np


class NumericError(FloatingPointError):
    """A non-finite value appeared where the math requires finite numbers."""


def _layer_sizes(layers) -> tuple[int, ...]:
    sizes = tuple(int(n) for n in getattr(layers, "sizes", layers))
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError(f"layer sizes must be positive, got {sizes}")
    return sizes


# Per-layer parameter fields, in the order of the flat tensor names.
_TENSOR_FIELDS = (
    "proj_w", "proj_b", "fwd_v", "fwd_h", "fwd_b", "bwd_v", "bwd_h", "bwd_b",
    "agg_fwd_u", "agg_bwd_u", "agg_b",
)


def _tensor_items(obj):
    """(name, array) pairs "<field>.<layer>", skipping the None chain ends."""
    for field in _TENSOR_FIELDS:
        for t, value in enumerate(getattr(obj, field)):
            if value is not None:
                yield f"{field}.{t}", value


@dataclasses.dataclass
class BinnParams:
    """Model parameters as per-layer arrays; boundary chain matrices are None."""

    dim: int
    sizes: tuple[int, ...]
    proj_w: list
    proj_b: list
    fwd_v: list
    fwd_h: list
    fwd_b: list
    bwd_v: list
    bwd_h: list
    bwd_b: list
    agg_fwd_u: list
    agg_bwd_u: list
    agg_b: list

    @property
    def num_layers(self) -> int:
        return len(self.sizes)

    @property
    def dtype(self) -> np.dtype:
        """The float dtype every array of the model, and its computation, uses."""
        return self.proj_w[0].dtype

    def tensors(self) -> dict[str, np.ndarray]:
        """Flat name-to-array view sharing storage with the parameters."""
        return dict(_tensor_items(self))


@dataclasses.dataclass
class BinnActivations:
    """Everything ``forward`` computes, kept for the backward pass."""

    x_t: list
    fwd: list
    bwd: list
    a: list
    p: list


# Both gate vectors start here so the two directions begin evenly mixed.
GATE_INIT = 0.5


def init_params(layers, dim: int, seed: int | None, dtype=np.float64) -> BinnParams:
    """Deterministic initialization for a given seed.

    Weight matrices draw from the uniform Glorot range
    +-sqrt(6 / (fan_in + fan_out)) in a fixed order (projections, then the
    forward chain, then the backward chain, layer by layer), in float64, and
    are then rounded to ``dtype``. Biases start at zero and both gate
    vectors at GATE_INIT. With ``seed`` None the weight matrices are zero
    and nothing is drawn: a container for restored parameters.
    """
    sizes = _layer_sizes(layers)
    if dim < 1:
        raise ValueError(f"feature dim must be positive, got {dim}")
    m = len(sizes)
    rng = None if seed is None else np.random.default_rng(seed)

    def glorot(rows: int, cols: int) -> np.ndarray:
        if rng is None:
            return np.zeros((rows, cols), dtype)
        lim = math.sqrt(6.0 / (rows + cols))
        return rng.uniform(-lim, lim, size=(rows, cols)).astype(dtype, copy=False)

    proj_w = [glorot(n, dim) for n in sizes]
    fwd_v: list = [None]
    fwd_h: list = []
    for t in range(m):
        if t > 0:
            fwd_v.append(glorot(sizes[t], sizes[t - 1]))
        fwd_h.append(glorot(sizes[t], sizes[t]))
    bwd_v: list = []
    bwd_h: list = []
    for t in range(m):
        if t < m - 1:
            bwd_v.append(glorot(sizes[t], sizes[t + 1]))
        else:
            bwd_v.append(None)
        bwd_h.append(glorot(sizes[t], sizes[t]))
    return BinnParams(
        dim=dim,
        sizes=sizes,
        proj_w=proj_w,
        proj_b=[np.zeros(n, dtype) for n in sizes],
        fwd_v=fwd_v,
        fwd_h=fwd_h,
        fwd_b=[np.zeros(n, dtype) for n in sizes],
        bwd_v=bwd_v,
        bwd_h=bwd_h,
        bwd_b=[np.zeros(n, dtype) for n in sizes],
        agg_fwd_u=[np.full(n, GATE_INIT, dtype) for n in sizes],
        agg_bwd_u=[np.full(n, GATE_INIT, dtype) for n in sizes],
        agg_b=[np.zeros(n, dtype) for n in sizes],
    )


def sigmoid(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise logistic 1 / (1 + exp(-a)), the formula of scipy's expit.

    exp(-a) overflows to inf below a point set by the dtype (about -88.7
    in float32, -709 in float64), which gives exactly 0; that overflow is
    expected, so its warning is silenced here only. ``out`` may
    be ``a`` itself.
    """
    with np.errstate(over="ignore"):
        out = np.negative(a, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.reciprocal(out, out=out)


def cross_entropy(a: np.ndarray, p: np.ndarray, z: np.ndarray) -> float:
    """Summed sigmoid cross entropy from logits ``a``, their sigmoid ``p``
    and 0/1 targets ``z``.

    Uses softplus(a) = max(a, 0) + log(1 + exp(-|a|)) and
    1 / (1 + exp(-|a|)) = max(p, 1 - p), so the loss reuses the sigmoid the
    caller already has and stays finite when p saturates at 0 or 1.
    """
    q = np.subtract(1.0, p)
    np.maximum(q, p, out=q)
    np.log(q, out=q)
    return float(np.maximum(a, 0.0).sum() - q.sum() - np.vdot(z, a))


def _as_batch(params, x) -> tuple[np.ndarray, bool]:
    """``x`` as a (B, D) batch in the parameters' dtype, and whether it was one vector."""
    x = np.asarray(x, dtype=params.dtype)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != params.dim:
        raise ValueError(f"expected input of dim {params.dim}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NumericError("non-finite input features")
    return x, squeeze


def forward(params: BinnParams, x) -> BinnActivations:
    """Run both chains; accepts one vector (D,) or a batch (B, D).

    Activations keep the same leading shape as the input. Raises
    NumericError as soon as any layer produces a non-finite value.
    """
    xb, squeeze = _as_batch(params, x)
    m = params.num_layers
    x_t = [xb @ params.proj_w[t].T + params.proj_b[t] for t in range(m)]
    fwd: list = [None] * m
    for t in range(m):
        pre = x_t[t] @ params.fwd_h[t].T + params.fwd_b[t]
        if t > 0:
            pre = pre + fwd[t - 1] @ params.fwd_v[t].T
        fwd[t] = pre
    bwd: list = [None] * m
    for t in range(m - 1, -1, -1):
        pre = x_t[t] @ params.bwd_h[t].T + params.bwd_b[t]
        if t < m - 1:
            pre = pre + bwd[t + 1] @ params.bwd_v[t].T
        bwd[t] = pre
    a = [
        params.agg_fwd_u[t] * fwd[t] + params.agg_bwd_u[t] * bwd[t] + params.agg_b[t]
        for t in range(m)
    ]
    # A non-finite fwd[t] or bwd[t] always makes a[t] non-finite (inf * 0
    # and inf - inf are nan), so checking a[t] alone covers the chains.
    for t in range(m):
        if not np.isfinite(a[t]).all():
            raise NumericError(f"non-finite activation in layer {t}")
    p = [sigmoid(a[t]) for t in range(m)]
    if squeeze:
        return BinnActivations(
            x_t=[v[0] for v in x_t],
            fwd=[v[0] for v in fwd],
            bwd=[v[0] for v in bwd],
            a=[v[0] for v in a],
            p=[v[0] for v in p],
        )
    return BinnActivations(x_t=x_t, fwd=fwd, bwd=bwd, a=a, p=p)


def _as_multi_hot(positives_t, shape, dtype) -> np.ndarray:
    """One layer's labels -> 0/1 ``dtype`` array of the activation ``shape``.

    A float or bool ndarray is multi-hot, reshaped to ``shape`` (so a (1, n)
    row serves an (n,) activation); anything else, integer arrays included,
    holds the positive label indices of one sample.
    """
    if isinstance(positives_t, np.ndarray) and positives_t.dtype.kind in "fb":
        if positives_t.size != math.prod(shape):
            raise ValueError(
                f"multi-hot labels of shape {positives_t.shape} do not fit "
                f"activations of shape {tuple(shape)}"
            )
        return positives_t.astype(dtype, copy=False).reshape(shape)
    if len(shape) != 1:
        raise ValueError("batched labels must be float or bool multi-hot arrays")
    z = np.zeros(shape, dtype=dtype)
    idx = np.asarray(list(positives_t), dtype=np.int64)
    if idx.size:
        if idx.min() < 0 or idx.max() >= shape[0]:
            raise IndexError(f"label index out of range for layer of size {shape[0]}")
        z[idx] = 1.0
    return z


def loss(acts: BinnActivations, positives) -> float:
    """Summed multi-label cross entropy over layers (and samples, if batched).

    ``positives`` is a per-layer sequence: index collections for single
    vectors, or float or bool multi-hot arrays with as many entries as the
    activations (required for batches).
    Computed by ``cross_entropy`` from the pre-activations and the
    probabilities ``forward`` already holds, so saturated sigmoids do not
    produce infinities.
    """
    if len(positives) != len(acts.a):
        raise ValueError(f"expected labels for {len(acts.a)} layers, got {len(positives)}")
    total = 0.0
    for a_t, p_t, pos_t in zip(acts.a, acts.p, positives):
        total += cross_entropy(a_t, p_t, _as_multi_hot(pos_t, a_t.shape, a_t.dtype))
    return total


def backward(params: BinnParams, x, positives) -> tuple[float, BinnParams]:
    """Loss and its exact parameter gradients for one sample (D,) or a batch
    (B, D), the gradients held in a BinnParams.

    Batch gradients are sums over the batch, matching the summed loss.
    """
    xb, squeeze = _as_batch(params, x)
    m = params.num_layers
    if len(positives) != m:
        raise ValueError(f"expected labels for {m} layers, got {len(positives)}")
    acts = forward(params, xb)
    z = []
    for t in range(m):
        if squeeze:
            z.append(_as_multi_hot(positives[t], (params.sizes[t],), params.dtype)[None, :])
        else:
            z.append(_as_multi_hot(positives[t], acts.a[t].shape, params.dtype))
    loss_value = loss(acts, z)
    g_a = [acts.p[t] - z[t] for t in range(m)]

    # Chain gradients: forward chain feeds later layers, so walk it backward;
    # the backward chain feeds earlier layers, so walk it forward.
    g_fwd: list = [None] * m
    for t in range(m - 1, -1, -1):
        g = g_a[t] * params.agg_fwd_u[t]
        if t < m - 1:
            g = g + g_fwd[t + 1] @ params.fwd_v[t + 1]
        g_fwd[t] = g
    g_bwd: list = [None] * m
    for t in range(m):
        g = g_a[t] * params.agg_bwd_u[t]
        if t > 0:
            g = g + g_bwd[t - 1] @ params.bwd_v[t - 1]
        g_bwd[t] = g

    grads = BinnParams(
        dim=params.dim,
        sizes=params.sizes,
        **{field: [None] * m for field in _TENSOR_FIELDS},
    )
    for t in range(m):
        grads.agg_fwd_u[t] = (g_a[t] * acts.fwd[t]).sum(axis=0)
        grads.agg_bwd_u[t] = (g_a[t] * acts.bwd[t]).sum(axis=0)
        grads.agg_b[t] = g_a[t].sum(axis=0)
        if t > 0:
            grads.fwd_v[t] = g_fwd[t].T @ acts.fwd[t - 1]
        grads.fwd_h[t] = g_fwd[t].T @ acts.x_t[t]
        grads.fwd_b[t] = g_fwd[t].sum(axis=0)
        if t < m - 1:
            grads.bwd_v[t] = g_bwd[t].T @ acts.bwd[t + 1]
        grads.bwd_h[t] = g_bwd[t].T @ acts.x_t[t]
        grads.bwd_b[t] = g_bwd[t].sum(axis=0)
        g_x_t = g_fwd[t] @ params.fwd_h[t] + g_bwd[t] @ params.bwd_h[t]
        grads.proj_w[t] = g_x_t.T @ xb
        grads.proj_b[t] = g_x_t.sum(axis=0)
    return loss_value, grads


# Model-family interface for the CLI (see ``cli.MODELS``).
DEFAULT_LR = 0.001
DEFAULT_ITERS = 90000


def init(hierarchy, dim: int, seed: int | None) -> BinnParams:
    return init_params(hierarchy.sizes, dim, seed, dtype=np.float32)


def train_grads(params: BinnParams, x, targets) -> tuple[float, dict]:
    loss_value, grads = backward(params, x, targets)
    return loss_value, grads.tensors()


def layer_weights(params: BinnParams, hierarchy) -> dict:
    """Each layer's exact affine map as (n_t, D+1) weights, bias last.

    Every pre-activation is affine in the input (the chains are linear and
    the sigmoid comes last), so one ``forward`` over the origin and the D
    unit vectors reads off a_t = x @ A_t + c_t: c_t is the origin's row and
    A_t the unit rows minus it. Plain arrays, not ``LogRegParams``: the
    ``baseline`` module imports this one.
    """
    basis = forward(params, np.eye(params.dim + 1, params.dim, k=-1, dtype=params.dtype)).a
    return {t: np.column_stack([(a[1:] - a[0]).T, a[0]]) for t, a in enumerate(basis)}
