"""The Adam update as a plain numpy expression, kept as the bitwise reference.

``optim.adam_step`` writes the same arithmetic into preallocated flat arrays;
in every dtype it must give results bitwise identical to this function. The
update is spelled out once per tensor with temporaries, in the tensor's
dtype, rounding each operation in the documented order.
"""

import numpy as np

from hlvc.optim import BETA1, BETA2, EPS, current_lr


def reference_adam_step(state, tensors, grads) -> float:
    lr = current_lr(state)
    t = state.step + 1
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    for name in sorted(tensors):
        param = tensors[name]
        grad = np.asarray(grads[name], dtype=param.dtype)
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
