"""The training step loop that ``hlvc train`` and library code share."""

from __future__ import annotations

import math

import numpy as np

from . import binn, optim
from .data import batch_indices


def fit(family, params, adam, x, labels, sizes, *, batch_size, seed, iters, log_every, log) -> None:
    """Train ``params`` in place with the Adam state ``adam``, from step
    ``adam.step`` up to ``iters``.

    ``family`` is a model module of ``cli.MODELS``, ``x`` the (N, D)
    features and ``labels`` one ``CsrLabels`` per layer, of ``sizes`` labels.
    Batches are ``data.batch_indices(N, batch_size, seed, epoch)``; a state
    stopped mid-epoch skips the batches its epoch has run, so a stopped and
    continued run equals the straight one bit for bit. Steps gather their
    rows of ``x`` into one reused (batch_size, D) array, reuse one float32
    target array per layer and a workspace holding the Adam state's
    gradient arrays, so ``adam_step`` copies none. Every ``log_every``
    steps, ``log`` gets ``step=S loss=L lr=R`` after the step's gradients,
    before its update. A non-finite loss raises ``binn.NumericError``.
    """
    n = len(x)
    steps_per_epoch = math.ceil(n / batch_size)
    rows = min(batch_size, n)
    x_buf = np.empty((rows, x.shape[1]), x.dtype)
    target_bufs = [np.empty((rows, size), np.float32) for size in sizes]
    work = dict(adam.g)
    tensors = params.tensors()
    step = adam.step
    while step < iters:
        epoch, skip = divmod(step, steps_per_epoch)
        for b, idx in enumerate(batch_indices(n, batch_size, seed, epoch)):
            if b < skip:
                continue
            if step >= iters:
                break
            # Batch indices are in range; "clip" skips the buffer of ``out``'s
            # size that the default mode copies through.
            batch = np.take(x, idx, axis=0, out=x_buf[: len(idx)], mode="clip")
            targets = [
                layer.multi_hot(idx, size, out=buf[: len(idx)])
                for layer, size, buf in zip(labels, sizes, target_bufs)
            ]
            loss_value, grad_tensors = family.train_grads(params, batch, targets, work)
            if not math.isfinite(loss_value):
                raise binn.NumericError(f"non-finite loss at step {step}")
            if step % log_every == 0:
                log(f"step={step} loss={loss_value:.6f} lr={optim.current_lr(adam):g}")
            optim.adam_step(adam, tensors, grad_tensors)
            step += 1
