"""Adam with decoupled weight decay and a stepped learning-rate schedule.

Parameters and gradients travel as flat name-to-array dicts (the models'
``tensors()`` views), so the optimizer never knows model structure. Updates
happen in place, in each parameter's dtype; moments are plain arrays of that
dtype on the state so checkpoints can carry them and training can resume bit
for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np

# Adam's moment decay rates and the denominator's floor.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclasses.dataclass
class AdamState:
    """First/second moment estimates plus the schedule configuration.

    ``step`` counts completed updates. The learning rate for the next update
    is base_lr * decay_factor ** (step // decay_every); decay_every <= 0
    disables the schedule.
    """

    base_lr: float
    weight_decay: float = 0.0
    decay_factor: float = 1.0
    decay_every: int = 0
    step: int = 0
    m: dict = dataclasses.field(default_factory=dict)
    v: dict = dataclasses.field(default_factory=dict)
    # Two flat work arrays per dtype, as long as the largest tensor, built on
    # the first update; each tensor's update runs in views of them.
    scratch: dict = dataclasses.field(default_factory=dict, repr=False, compare=False)


def init_adam(
    tensors,
    base_lr: float,
    *,
    weight_decay: float = 0.0,
    decay_factor: float = 1.0,
    decay_every: int = 0,
) -> AdamState:
    """Fresh state with zero moments shaped like the given tensors, in their dtypes."""
    if base_lr <= 0:
        raise ValueError(f"base_lr must be positive, got {base_lr}")
    state = AdamState(
        base_lr=base_lr,
        weight_decay=weight_decay,
        decay_factor=decay_factor,
        decay_every=decay_every,
    )
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        state.m[name] = np.zeros_like(arr)
        state.v[name] = np.zeros_like(arr)
    return state


def current_lr(state: AdamState) -> float:
    """Learning rate the next call to adam_step will use."""
    if state.decay_every <= 0 or state.decay_factor == 1.0:
        return state.base_lr
    return state.base_lr * state.decay_factor ** (state.step // state.decay_every)


def adam_step(state: AdamState, tensors, grads) -> float:
    """One in-place update of every tensor; returns the learning rate used.

    Bias correction uses the post-increment step count, so the very first
    update is corrected with t = 1. Weight decay is decoupled: lr *
    weight_decay * param is subtracted alongside the Adam direction rather
    than being folded into the gradient.

    Each tensor is updated in its own dtype, gradients cast to it. The
    arithmetic writes into the moments, the tensor and two scratch arrays
    instead of temporaries, and rounds the same operations in the same
    order as the expression ``param -= lr * ((m / c1) / (sqrt(v / c2) + EPS)
    + weight_decay * param)``.
    """
    if set(tensors) != set(state.m):
        missing = sorted(set(state.m) - set(tensors))
        extra = sorted(set(tensors) - set(state.m))
        raise ValueError(f"tensor names mismatch: missing {missing}, extra {extra}")
    lr = current_lr(state)
    t = state.step + 1
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    for name in sorted(tensors):
        param = tensors[name]
        grad = np.asarray(grads[name], dtype=param.dtype)
        if grad.shape != param.shape:
            raise ValueError(
                f"gradient for {name} has shape {grad.shape}, expected {param.shape}"
            )
        if not np.isfinite(grad).all():
            raise FloatingPointError(f"non-finite gradient for {name}")
        m = state.m[name]
        v = state.v[name]
        s1, s2 = (buf[: param.size].reshape(param.shape) for buf in _scratch(state, param))
        m *= BETA1
        np.multiply(1.0 - BETA1, grad, out=s1)
        m += s1
        v *= BETA2
        np.multiply(1.0 - BETA2, grad, out=s1)
        s1 *= grad
        v += s1
        np.divide(v, c2, out=s1)
        np.sqrt(s1, out=s1)
        s1 += EPS
        np.divide(m, c1, out=s2)
        s2 /= s1
        if state.weight_decay:
            np.multiply(state.weight_decay, param, out=s1)
            s2 += s1
        s2 *= lr
        param -= s2
    state.step = t
    return lr


def _scratch(state: AdamState, param: np.ndarray) -> tuple:
    """The state's two work arrays for ``param``'s dtype, grown to fit it."""
    bufs = state.scratch.get(param.dtype)
    if bufs is None or bufs[0].size < param.size:
        same = [m.size for m in state.m.values() if m.dtype == param.dtype]
        largest = max([param.size] + same)
        bufs = state.scratch[param.dtype] = (
            np.empty(largest, param.dtype),
            np.empty(largest, param.dtype),
        )
    return bufs
