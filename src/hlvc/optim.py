"""Adam with decoupled weight decay and a stepped learning-rate schedule.

Parameters and gradients travel as flat name-to-array dicts (the models'
``tensors()`` views), so the optimizer never knows model structure. Updates
happen in place, in each parameter's dtype. The state packs the moments of
all tensors of one dtype, in name order, into one flat array each for m and
v, with a gradient array of the same length; ``m[name]`` and ``v[name]``
are views of them shaped like the tensor, so checkpoints can carry the
moments by name and training can resume bit for bit. One update runs the
Adam arithmetic over ``SLICE``-element slices of the flat arrays, through
one slice-sized scratch array per dtype.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

# Adam's moment decay rates and the denominator's floor.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# Elements of each flat array one pass of ``adam_step`` covers. A float32
# slice of its five operands (m, v, gradient, scratch, parameter) is 1.25 MB,
# small enough to stay in a 2 MB L2 cache between the passes.
SLICE = 1 << 16


@dataclasses.dataclass
class _Flat:
    """One dtype's packed state: the tensor names in order, the flat moments
    and gradient, ``size`` long, and a scratch array of at most ``SLICE``.

    ``slices`` lists, per slice of the flat arrays, its views (m, v, g and
    the scratch) and its tensor segments as (name, part, g, scratch): the
    slice ``part`` of the tensor's flattened elements that the segment
    covers, and the segment's views of the gradient and the scratch."""

    names: list
    m: np.ndarray
    v: np.ndarray
    g: np.ndarray
    work: np.ndarray
    slices: list


@dataclasses.dataclass
class AdamState:
    """First/second moment estimates plus the schedule configuration.

    ``step`` counts completed updates. The learning rate for the next update
    is base_lr * decay_factor ** (step // decay_every); decay_every <= 0
    disables the schedule.

    The ``m`` and ``v`` arrays given are copied into flat arrays per dtype
    when the state is built; afterwards ``m[name]``, ``v[name]`` and
    ``g[name]`` are views of those, and writing into them in place (as a
    restore does) writes the state. The slices are laid out from ``SLICE``
    as it is when the state is built.
    """

    base_lr: float
    weight_decay: float = 0.0
    decay_factor: float = 1.0
    decay_every: int = 0
    step: int = 0
    m: dict = dataclasses.field(default_factory=dict)
    v: dict = dataclasses.field(default_factory=dict)
    # Each tensor's slice of its dtype's flat gradient array. ``adam_step``
    # copies each gradient in, unless it is this very array: a caller may
    # compute gradients straight into these.
    g: dict = dataclasses.field(init=False, repr=False, compare=False)
    flat: dict = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if set(self.m) != set(self.v):
            raise ValueError("first and second moments name different tensors")
        given_m, given_v = self.m, self.v
        groups: dict = {}
        for name in sorted(given_m):
            m, v = np.asarray(given_m[name]), np.asarray(given_v[name])
            if m.shape != v.shape or m.dtype != v.dtype:
                raise ValueError(f"moments of {name} differ in shape or dtype")
            groups.setdefault(m.dtype, []).append(name)
        self.m, self.v, self.g, self.flat = {}, {}, {}, {}
        for dtype, names in groups.items():
            shapes = [np.shape(given_m[name]) for name in names]
            size = sum(math.prod(shape) for shape in shapes)
            m, v, g = (np.empty(size, dtype) for _ in range(3))
            work = np.empty(min(size, SLICE), dtype)
            slices = [
                (m[lo : lo + SLICE], v[lo : lo + SLICE], g[lo : lo + SLICE],
                 work[: min(SLICE, size - lo)], [])
                for lo in range(0, size, SLICE)
            ]
            start = 0
            for name, shape in zip(names, shapes):
                stop = start + math.prod(shape)
                self.m[name], self.v[name], self.g[name] = (
                    arr[start:stop].reshape(shape) for arr in (m, v, g)
                )
                self.m[name][...] = given_m[name]
                self.v[name][...] = given_v[name]
                # The tensor's segment in each slice it overlaps.
                for lo in range(start - start % SLICE, stop, SLICE):
                    a, b = max(start, lo), min(stop, lo + SLICE)
                    slices[lo // SLICE][4].append(
                        (name, slice(a - start, b - start), g[a:b], work[a - lo : b - lo])
                    )
                start = stop
            self.flat[dtype] = _Flat(names, m, v, g, work, slices)


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
    # Read-only zero views, which take no memory; the state copies them in.
    zeros = {}
    for name, tensor in tensors.items():
        arr = np.asarray(tensor)
        zeros[name] = np.broadcast_to(np.zeros((), arr.dtype), arr.shape)
    return AdamState(
        base_lr=base_lr,
        weight_decay=weight_decay,
        decay_factor=decay_factor,
        decay_every=decay_every,
        m=zeros,
        v=zeros,
    )


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

    The gradients are copied into the state's flat gradient arrays, cast to
    each tensor's dtype, and checked to be finite before any tensor changes.
    The arithmetic then runs over one ``SLICE``-element slice of each
    dtype's flat arrays at a time, writing into the moments, the gradient
    slice (which becomes the step) and the scratch instead of temporaries;
    weight decay and the parameter update run per tensor segment of the
    slice. It rounds the same operations in the same order as the
    expression ``param -= lr * ((m / c1) / (sqrt(v / c2) + EPS) +
    weight_decay * param)``. Each tensor is updated through its flattened
    view, so it must be C-contiguous.
    """
    if set(tensors) != set(state.m):
        missing = sorted(set(state.m) - set(tensors))
        extra = sorted(set(tensors) - set(state.m))
        raise ValueError(f"tensor names mismatch: missing {missing}, extra {extra}")
    for name in sorted(tensors):
        param, grad, into = tensors[name], grads[name], state.g[name]
        if np.shape(param) != into.shape or not param.flags.c_contiguous:
            raise ValueError(
                f"tensor {name} must be a C-contiguous array of shape {into.shape}"
            )
        if grad is into:
            continue
        if np.shape(grad) != into.shape:
            raise ValueError(
                f"gradient for {name} has shape {np.shape(grad)}, expected {into.shape}"
            )
        into[...] = grad
    # isfinite writes into the scratch's bytes, read as bools, so the check
    # allocates nothing.
    flats = state.flat.values()
    if not all(
        np.isfinite(g, out=work.view(np.bool_)[: g.size]).all()
        for f in flats
        for _, _, g, work, _ in f.slices
    ):
        bad = next(name for name in sorted(state.g) if not np.isfinite(state.g[name]).all())
        raise FloatingPointError(f"non-finite gradient for {bad}")
    lr = current_lr(state)
    t = state.step + 1
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    decay = state.weight_decay
    for flat in flats:
        for m, v, g, work, segments in flat.slices:
            m *= BETA1
            m += np.multiply(1.0 - BETA1, g, out=work)
            v *= BETA2
            np.multiply(1.0 - BETA2, g, out=work)
            work *= g
            v += work
            np.divide(v, c2, out=work)
            np.sqrt(work, out=work)
            work += EPS
            np.divide(m, c1, out=g)
            g /= work
            params = [tensors[name].reshape(-1)[part] for name, part, _, _ in segments]
            if decay:
                for param, (_, _, seg_g, seg_work) in zip(params, segments):
                    seg_g += np.multiply(param, decay, out=seg_work)
            g *= lr
            for param, (_, _, seg_g, _) in zip(params, segments):
                param -= seg_g
    state.step = t
    return lr
