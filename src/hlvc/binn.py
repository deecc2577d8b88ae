"""Bidirectional label-space inference with exact analytic gradients.

Every function takes a batch of feature rows (B, D) and, for training,
one (B, n_t) multi-hot target array per layer; the equations below are per
row. Each concept layer t (coarse to fine, sizes n_0..n_{m-1}) gets its own
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

``forward`` and ``backward`` write every activation, chain gradient and
parameter gradient into the arrays of a workspace dict, with ``matmul(...,
out=)``, in-place ufuncs and ``sum(axis=0, out=)``. A training run passes
one workspace to every step, so a warm step allocates none of them; without
one, each call computes into a fresh workspace.

``backward`` writes each chain gradient over an activation that is dead by
then: the logits' gradient p - z over p, g_fwd over a (dead once the loss
is summed), g_bwd over fwd (once every forward-chain parameter gradient,
the only readers of fwd, is taken) and the gradient of x_t over x_t (once
fwd_h's and bwd_h's gradients are taken). So the workspace holds six
(B, n_t) arrays per layer, x_t, fwd, bwd, a, p and tmp, besides the
parameter gradients.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .features import nonfinite_rows


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
    """Everything ``forward`` computes, kept for the backward pass, plus one
    scratch array per layer of the same (B, n_t) shape. ``x`` is the batch
    it ran on, as a checked (B, D) array in the parameters' dtype."""

    x: np.ndarray
    x_t: list
    fwd: list
    bwd: list
    a: list
    p: list
    tmp: list


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


def cross_entropy(a: np.ndarray, p: np.ndarray, z: np.ndarray, out=None) -> float:
    """Summed sigmoid cross entropy from logits ``a``, their sigmoid ``p``
    and 0/1 targets ``z``.

    Uses softplus(a) = max(a, 0) + log(1 + exp(-|a|)) and
    1 / (1 + exp(-|a|)) = max(p, 1 - p), so the loss reuses the sigmoid the
    caller already has and stays finite when p saturates at 0 or 1. The
    elementwise terms go into ``out``, an array of ``a``'s shape, when given.
    """
    q = np.subtract(1.0, p, out=out)
    np.maximum(q, p, out=q)
    np.log(q, out=q)
    log_term = q.sum()
    return float(np.maximum(a, 0.0, out=q).sum() - log_term - np.vdot(z, a))


def _as_batch(params, x) -> np.ndarray:
    """``x`` as a (B, D) batch in the parameters' dtype; a (D,) vector is one row."""
    x = np.atleast_2d(np.asarray(x, dtype=params.dtype))
    if x.ndim != 2 or x.shape[1] != params.dim:
        raise ValueError(f"expected input of dim {params.dim}, got shape {x.shape}")
    if nonfinite_rows(x).size:
        raise NumericError("non-finite input features")
    return x


def _all_finite(a: np.ndarray, scratch: np.ndarray) -> bool:
    """Whether every value of ``a`` is finite. The check's bools go into the
    bytes of ``scratch``, a contiguous array at least as large, so it
    allocates nothing."""
    mask = scratch.reshape(-1).view(np.bool_)[: a.size].reshape(a.shape)
    return bool(np.isfinite(a, out=mask).all())


def _buffer(work: dict, key, shape: tuple, dtype) -> np.ndarray:
    """The workspace array ``work[key]``, or its leading ``shape[0]`` rows if
    it has more; made anew (and kept) when it is missing or cannot hold
    ``shape``."""
    buf = work.get(key)
    if buf is None or buf.dtype != dtype or buf.shape[1:] != shape[1:] or len(buf) < shape[0]:
        buf = work[key] = np.empty(shape, dtype)
    return buf if len(buf) == shape[0] else buf[: shape[0]]


def _layer_rows(params: BinnParams, work: dict, key: str, rows: int) -> list:
    """One (rows, n_t) workspace array per layer, stored under (key, t)."""
    return [_buffer(work, (key, t), (rows, n), params.dtype) for t, n in enumerate(params.sizes)]


def forward(params: BinnParams, x, work: dict | None = None) -> BinnActivations:
    """Run both chains over a batch (B, D); a (D,) vector is a batch of one.

    Every activation is (B, n_t), written into the leading B rows of the
    arrays of ``work``, a dict that a training loop keeps across calls so
    that no step allocates them again; a later call with the same ``work``
    overwrites them. With ``work`` None a fresh workspace is used. Raises
    NumericError as soon as any layer produces a non-finite value.
    """
    xb = _as_batch(params, x)
    work = {} if work is None else work
    m = params.num_layers
    x_t, fwd, bwd, a, p, tmp = (
        _layer_rows(params, work, key, len(xb)) for key in ("x_t", "fwd", "bwd", "a", "p", "tmp")
    )
    for t in range(m):
        np.matmul(xb, params.proj_w[t].T, out=x_t[t])
        x_t[t] += params.proj_b[t]
    for t in range(m):
        np.matmul(x_t[t], params.fwd_h[t].T, out=fwd[t])
        fwd[t] += params.fwd_b[t]
        if t > 0:
            fwd[t] += np.matmul(fwd[t - 1], params.fwd_v[t].T, out=tmp[t])
    for t in range(m - 1, -1, -1):
        np.matmul(x_t[t], params.bwd_h[t].T, out=bwd[t])
        bwd[t] += params.bwd_b[t]
        if t < m - 1:
            bwd[t] += np.matmul(bwd[t + 1], params.bwd_v[t].T, out=tmp[t])
    for t in range(m):
        np.multiply(params.agg_fwd_u[t], fwd[t], out=a[t])
        a[t] += np.multiply(params.agg_bwd_u[t], bwd[t], out=tmp[t])
        a[t] += params.agg_b[t]
    # A non-finite fwd[t] or bwd[t] always makes a[t] non-finite (inf * 0
    # and inf - inf are nan), so checking a[t] alone covers the chains; tmp[t]
    # is free until the loss.
    for t in range(m):
        if not _all_finite(a[t], tmp[t]):
            raise NumericError(f"non-finite activation in layer {t}")
    for t in range(m):
        sigmoid(a[t], out=p[t])
    return BinnActivations(x=xb, x_t=x_t, fwd=fwd, bwd=bwd, a=a, p=p, tmp=tmp)


def _as_multi_hot(labels, shape, dtype) -> np.ndarray:
    """One layer's float or bool multi-hot ``labels``, of exactly the
    activation ``shape``, as 0/1 ``dtype`` values (no copy if already ``dtype``)."""
    if not isinstance(labels, np.ndarray) or labels.shape != shape or labels.dtype.kind not in "fb":
        raise ValueError(f"labels must be float or bool multi-hot arrays of shape {shape}")
    return labels.astype(dtype, copy=False)


def loss(acts: BinnActivations, positives) -> float:
    """Summed multi-label cross entropy over layers and samples.

    ``positives`` holds one float or bool multi-hot array per layer, of that
    layer's (B, n_t) activation shape.
    Computed by ``cross_entropy`` from the pre-activations and the
    probabilities ``forward`` already holds, so saturated sigmoids do not
    produce infinities; its terms go into the activations' scratch arrays.
    """
    if len(positives) != len(acts.a):
        raise ValueError(f"expected labels for {len(acts.a)} layers, got {len(positives)}")
    total = 0.0
    for a_t, p_t, pos_t, tmp_t in zip(acts.a, acts.p, positives, acts.tmp):
        total += cross_entropy(a_t, p_t, _as_multi_hot(pos_t, a_t.shape, a_t.dtype), out=tmp_t)
    return total


def backward(
    params: BinnParams, x, positives, work: dict | None = None
) -> tuple[float, BinnParams]:
    """Loss and its exact parameter gradients for a batch (B, D) and its
    per-layer (B, n_t) multi-hot ``positives``, the gradients held in a
    BinnParams; a (D,) vector is a batch of one.

    Gradients are sums over the batch, matching the summed loss. Everything
    is computed into ``work`` as in ``forward``, the gradients too: each goes
    into ``work[name]``, ``name`` as in ``BinnParams.tensors()``, so a caller
    may put its own arrays there for them. The gradients returned are those
    arrays, overwritten by the next call with the same ``work``.
    """
    m = params.num_layers
    if len(positives) != m:
        raise ValueError(f"expected labels for {m} layers, got {len(positives)}")
    work = {} if work is None else work
    acts = forward(params, x, work)
    xb = acts.x
    z = [_as_multi_hot(positives[t], acts.a[t].shape, params.dtype) for t in range(m)]
    loss_value = loss(acts, z)
    # p is needed no more: it becomes the logits' gradient p - z.
    g_a = [np.subtract(acts.p[t], z[t], out=acts.p[t]) for t in range(m)]
    x_t, fwd, bwd, tmp = acts.x_t, acts.fwd, acts.bwd, acts.tmp

    grads = BinnParams(
        dim=params.dim,
        sizes=params.sizes,
        **{field: [None] * m for field in _TENSOR_FIELDS},
    )

    def out(field: str, t: int) -> np.ndarray:
        """The workspace array for the gradient of ``params.<field>[t]``."""
        like = getattr(params, field)[t]
        grad = getattr(grads, field)[t] = _buffer(work, f"{field}.{t}", like.shape, like.dtype)
        return grad

    # The forward chain feeds later layers, so its gradient walks backward;
    # a is needed no more after the loss, so it holds g_fwd.
    g_fwd = acts.a
    for t in range(m - 1, -1, -1):
        np.multiply(g_a[t], params.agg_fwd_u[t], out=g_fwd[t])
        if t < m - 1:
            g_fwd[t] += np.matmul(g_fwd[t + 1], params.fwd_v[t + 1], out=tmp[t])
    # The forward chain's parameter gradients are the last readers of fwd.
    for t in range(m):
        np.multiply(g_a[t], fwd[t], out=tmp[t]).sum(axis=0, out=out("agg_fwd_u", t))
        if t > 0:
            np.matmul(g_fwd[t].T, fwd[t - 1], out=out("fwd_v", t))
        np.matmul(g_fwd[t].T, x_t[t], out=out("fwd_h", t))
        g_fwd[t].sum(axis=0, out=out("fwd_b", t))
    # The backward chain feeds earlier layers, so its gradient walks forward;
    # fwd holds it.
    g_bwd = fwd
    for t in range(m):
        np.multiply(g_a[t], params.agg_bwd_u[t], out=g_bwd[t])
        if t > 0:
            g_bwd[t] += np.matmul(g_bwd[t - 1], params.bwd_v[t - 1], out=tmp[t])
    for t in range(m):
        np.multiply(g_a[t], bwd[t], out=tmp[t]).sum(axis=0, out=out("agg_bwd_u", t))
        g_a[t].sum(axis=0, out=out("agg_b", t))
        if t < m - 1:
            np.matmul(g_bwd[t].T, bwd[t + 1], out=out("bwd_v", t))
        np.matmul(g_bwd[t].T, x_t[t], out=out("bwd_h", t))
        g_bwd[t].sum(axis=0, out=out("bwd_b", t))
        # x_t[t] is needed no more once fwd_h and bwd_h have their gradients:
        # it holds the gradient of x_t.
        g_x_t = np.matmul(g_fwd[t], params.fwd_h[t], out=x_t[t])
        g_x_t += np.matmul(g_bwd[t], params.bwd_h[t], out=tmp[t])
        np.matmul(g_x_t.T, xb, out=out("proj_w", t))
        g_x_t.sum(axis=0, out=out("proj_b", t))
    return loss_value, grads


# Model-family interface for the CLI (see ``cli.MODELS``).
DEFAULT_LR = 0.001
DEFAULT_ITERS = 90000


def init(hierarchy, dim: int, seed: int | None) -> BinnParams:
    return init_params(hierarchy.sizes, dim, seed, dtype=np.float32)


def train_grads(params: BinnParams, x, targets, work: dict | None = None) -> tuple[float, dict]:
    loss_value, grads = backward(params, x, targets, work)
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
