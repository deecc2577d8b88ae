"""Per-function spans for an in-process hlvc run, installed from outside src/.

``Tracer.install`` replaces each traced function with a timing wrapper, both
where it is defined and on every ``hlvc`` module that bound it with
``from ... import`` (``hlvc.cli`` calls ``read_shard``, ``evaluate`` and
others through such bindings). A span's self time is its duration minus
the durations of the traced calls nested in it, so ``binn.backward``
excludes its inner ``binn.forward``, ``features.fit_pca_whitening``
excludes ``features.jacobi_eigh`` and ``metrics.evaluate`` excludes the
four metrics.

Some functions also get a work count computed from their arguments' shapes:
file bytes for ``data.read_shard``, floating-point operations for the
matrix products of ``binn.forward``, ``binn.backward`` (its own products,
without the nested forward) and ``baseline.loss_grad``, and float64 bytes
read and written by ``optim.adam_step``. These are computed, not counted
by hardware.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import sys
import time


def _batch(x) -> int:
    return x.shape[0] if x.ndim == 2 else 1


def _binn_forward_flops(params, x, *_, **__) -> float:
    n, d, b = params.sizes, params.dim, _batch(x)
    flops = sum(2 * b * d * k + 4 * b * k * k for k in n)  # projection, fwd_h, bwd_h
    flops += sum(4 * b * n[t] * n[t - 1] for t in range(1, len(n)))  # fwd_v, bwd_v
    return flops


def _binn_backward_flops(params, x, *_, **__) -> float:
    n, d, b = params.sizes, params.dim, _batch(x)
    # Per layer: fwd_h, bwd_h grads and the two g_x_t products (4 n^2),
    # proj_w grad and the input gradient (2 n d).
    flops = sum(2 * b * (4 * k * k + 2 * k * d) for k in n)
    # Per adjacent pair: both chain gradients and the fwd_v, bwd_v grads.
    flops += sum(8 * b * n[t] * n[t - 1] for t in range(1, len(n)))
    return flops


def _loss_grad_flops(params, x, *_, **__) -> float:
    return 4 * _batch(x) * params.num_classes * (params.dim + 1)


def _adam_bytes(state, tensors, *_, **__) -> float:
    # Reads param, grad, m, v and writes param, m, v: seven float64 passes.
    return 7 * 8 * sum(t.size for t in tensors.values())


def _shard_bytes(path, *_, **__) -> float:
    return os.path.getsize(path)


# (label, module, attribute); "Class.method" attributes are wrapped on the class.
TRACED = (
    ("cli.train", "hlvc.cli", "cmd_train"),
    ("cli.evaluate", "hlvc.cli", "cmd_evaluate"),
    ("cli.predict", "hlvc.cli", "cmd_predict"),
    ("data.synth_generate", "hlvc.data", "synth_generate"),
    ("data.write_shard", "hlvc.data", "write_shard"),
    ("data.read_shard", "hlvc.data", "read_shard"),
    ("data.save_checkpoint", "hlvc.data", "save_checkpoint"),
    ("data.load_checkpoint", "hlvc.data", "load_checkpoint"),
    ("hierarchy.load_vocabulary", "hlvc.hierarchy", "load_vocabulary"),
    ("hierarchy.induce_vertical_scores", "hlvc.hierarchy",
     "LabelHierarchy.induce_vertical_scores"),
    ("features.fit_znorm", "hlvc.features", "fit_znorm"),
    ("features.fit_pca_whitening", "hlvc.features", "fit_pca_whitening"),
    ("features.jacobi_eigh", "hlvc.features", "jacobi_eigh"),
    ("features.apply_normalizer", "hlvc.features", "apply_normalizer"),
    ("binn.forward", "hlvc.binn", "forward"),
    ("binn.backward", "hlvc.binn", "backward"),
    ("baseline.loss_grad", "hlvc.baseline", "loss_grad"),
    ("baseline.predict", "hlvc.baseline", "predict"),
    ("optim.adam_step", "hlvc.optim", "adam_step"),
    ("metrics.evaluate", "hlvc.metrics", "evaluate"),
    ("metrics.mean_average_precision", "hlvc.metrics", "mean_average_precision"),
    ("metrics.global_average_precision", "hlvc.metrics", "global_average_precision"),
    ("metrics.perr", "hlvc.metrics", "perr"),
    ("metrics.hit_at_1", "hlvc.metrics", "hit_at_1"),
)

# label -> (work function, derived metric name, unit, scale to that unit, per "call" or "s")
WORK = {
    "data.read_shard": (_shard_bytes, "mb_per_s", "MB/s", 1e-6, "s"),
    "binn.forward": (_binn_forward_flops, "computed_gflop_per_call", "GFLOP", 1e-9, "call"),
    "binn.backward": (_binn_backward_flops, "computed_gflop_per_call", "GFLOP", 1e-9, "call"),
    "baseline.loss_grad": (_loss_grad_flops, "computed_gflop_per_call", "GFLOP", 1e-9, "call"),
    "optim.adam_step": (_adam_bytes, "computed_mb_per_call", "MB", 1e-6, "call"),
}


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for label, _, _ in TRACED:
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_s"] = "s"
        if label in WORK:
            _, name, unit, _, _ = WORK[label]
            units[f"{label}.{name}"] = unit
    units["tracing_overhead_s"] = "s"
    return units


class Tracer:
    """Call counts, total and self time, and computed work per traced function."""

    def __init__(self) -> None:
        self.calls = collections.Counter()
        self.total_s = collections.defaultdict(float)
        self.self_s = collections.defaultdict(float)
        self.work = collections.defaultdict(float)
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, label, fn):
        work = WORK[label][0] if label in WORK else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested = [0.0]
            self._stack.append(nested)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
                self.calls[label] += 1
                self.total_s[label] += duration
                self.self_s[label] += duration - nested[0]
                if work is not None:
                    self.work[label] += work(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every traced function and each ``hlvc`` module binding of it."""
        importlib.import_module("hlvc.cli")
        modules = [m for n, m in list(sys.modules.items()) if n == "hlvc" or n.startswith("hlvc.")]
        for label, module_name, attr in TRACED:
            owner = importlib.import_module(module_name)
            cls_name, _, name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = vars(owner)[name]
            wrapped = self._wrap(label, original)
            sites = [(owner, name)] + [
                (m, key) for m in modules for key, value in vars(m).items()
                if value is original and m is not owner
            ]
            for obj, key in sites:
                self._undo.append((obj, key, original))
                setattr(obj, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)

    def metrics(self) -> dict:
        """Per-layer metric values; functions never called report zeros."""
        out = {}
        for label, _, _ in TRACED:
            calls = self.calls[label]
            out[f"{label}.calls"] = calls
            out[f"{label}.self_s"] = self.self_s[label]
            if label in WORK:
                _, name, _, scale, per = WORK[label]
                base = self.total_s[label] if per == "s" else calls
                out[f"{label}.{name}"] = self.work[label] * scale / base if base else 0.0
        return out
