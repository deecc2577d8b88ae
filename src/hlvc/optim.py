"""Adam with decoupled weight decay and a stepped learning-rate schedule.

Parameters and gradients travel as flat name-to-array dicts (the models'
``tensors()`` views), so the optimizer never knows model structure. Updates
happen in place; moments are plain arrays on the state so checkpoints can
carry them and training can resume bit for bit.
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


def init_adam(
    tensors,
    base_lr: float,
    *,
    weight_decay: float = 0.0,
    decay_factor: float = 1.0,
    decay_every: int = 0,
) -> AdamState:
    """Fresh state with zero moments shaped like the given tensors."""
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
        state.m[name] = np.zeros_like(arr, dtype=np.float64)
        state.v[name] = np.zeros_like(arr, dtype=np.float64)
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
        grad = np.asarray(grads[name], dtype=np.float64)
        if grad.shape != param.shape:
            raise ValueError(
                f"gradient for {name} has shape {grad.shape}, expected {param.shape}"
            )
        if not np.isfinite(grad).all():
            raise FloatingPointError(f"non-finite gradient for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad * grad
        direction = (m / c1) / (np.sqrt(v / c2) + EPS)
        if state.weight_decay:
            direction = direction + state.weight_decay * param
        param -= lr * direction
    state.step = t
    return lr
