"""The BINN forward and backward passes as they were written before the
workspace, kept as the bitwise reference.

``binn.forward`` and ``binn.backward`` compute the same operations in the
same order into arrays that a training run reuses; their activations, loss
and gradients must be bitwise identical to these, which allocate every
array afresh. The functions below are kept verbatim, with the activations
they return in a local dataclass.
"""

import dataclasses

import numpy as np

from hlvc.binn import _TENSOR_FIELDS, BinnParams, NumericError, _as_batch, _as_multi_hot, sigmoid


@dataclasses.dataclass
class BinnActivations:
    x_t: list
    fwd: list
    bwd: list
    a: list
    p: list


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


def forward(params: BinnParams, x) -> BinnActivations:
    """Run both chains over a batch (B, D); a (D,) vector is a batch of one.

    Every activation is (B, n_t). Raises NumericError as soon as any layer
    produces a non-finite value.
    """
    xb = _as_batch(params, x)
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
    return BinnActivations(x_t=x_t, fwd=fwd, bwd=bwd, a=a, p=p)


def loss(acts: BinnActivations, positives) -> float:
    """Summed multi-label cross entropy over layers and samples.

    ``positives`` holds one float or bool multi-hot array per layer, of that
    layer's (B, n_t) activation shape.
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
    """Loss and its exact parameter gradients for a batch (B, D) and its
    per-layer (B, n_t) multi-hot ``positives``, the gradients held in a
    BinnParams; a (D,) vector is a batch of one.

    Gradients are sums over the batch, matching the summed loss.
    """
    xb = _as_batch(params, x)
    m = params.num_layers
    if len(positives) != m:
        raise ValueError(f"expected labels for {m} layers, got {len(positives)}")
    acts = forward(params, xb)
    z = [_as_multi_hot(positives[t], acts.a[t].shape, params.dtype) for t in range(m)]
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

