"""Command line pipeline: synthesize, train, evaluate, predict.

Every subcommand accepts ``--config FILE`` with ``key = value`` lines (one
per line, '#' starts a comment); explicitly passed flags override file
values, which override built-in defaults. Exit codes: 0 success, 1 usage
error, 2 unreadable or inconsistent data, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys
import typing

import numpy as np

from . import baseline, binn, optim
from .atomic import atomic_open
from .data import (
    Checkpoint,
    CheckpointError,
    CsrLabels,
    Shard,
    ShardError,
    SynthConfig,
    check_finite,
    load_checkpoint,
    read_shard,
    save_checkpoint,
    synth_generate,
    write_shard,
)
from .features import (
    BLOCK_ROWS,
    ConvergenceError,
    apply_normalizer,
    fit_pca_whitening,
    fit_znorm,
)
from .hierarchy import VocabularyError, load_vocabulary, save_vocabulary
from .metrics import DEFAULT_TOP_K, PredictionSet, evaluate, top_labels
from .train import fit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# Model families by name, the first the default. Each module provides the
# DEFAULT_LR and DEFAULT_ITERS applied when lr/iters are unset, and
# init(hierarchy, dim, seed) -> float32 parameters (seed None: drawn from no
# RNG, the container a checkpoint is restored into), train_grads(params, x,
# per_layer_targets) -> (loss, {name: grad}), computing in the parameters'
# dtype, and layer_weights(params, hierarchy) -> {layer: (n_t, D+1) weights,
# bias last}, the affine logits of each layer the model scores.
MODELS = {"binn": binn, "logreg": baseline}

# Training-state names of the Adam moments: "adam.m.<param>" and "adam.v.<param>".
_ADAM_PREFIX = "adam."


class UsageError(Exception):
    """Bad flags or config values; maps to exit code 1."""


@dataclasses.dataclass
class RunConfig:
    """Training/evaluation settings shared by the train-side subcommands."""

    model: str = next(iter(MODELS))
    features: str = "rgb"
    norm: str = "znorm"
    l2: bool = True
    lr: float | None = None
    iters: int | None = None
    batch_size: int = 1024
    weight_decay: float = 1e-8
    decay_factor: float = 0.1
    decay_every: int = 40000
    epsilon: float = 1e-6
    seed: int = 0
    log_every: int = 100

    def resolved(self) -> "RunConfig":
        """Copy with model-specific lr/iters defaults filled in."""
        out = dataclasses.replace(self)
        family = MODELS[self.model]
        if out.lr is None:
            out.lr = family.DEFAULT_LR
        if out.iters is None:
            out.iters = family.DEFAULT_ITERS
        return out

    def validate(self) -> None:
        check_finite(self, UsageError)
        if self.model not in MODELS:
            raise UsageError(f"unknown model {self.model!r}")
        if self.features not in ("rgb", "rgb+audio"):
            raise UsageError(f"features must be 'rgb' or 'rgb+audio', got {self.features!r}")
        if self.norm not in ("znorm", "pca"):
            raise UsageError(f"unknown normalizer {self.norm!r}")
        if self.lr is not None and self.lr <= 0:
            raise UsageError(f"lr must be positive, got {self.lr}")
        if self.iters is not None and self.iters < 1:
            raise UsageError(f"iters must be at least 1, got {self.iters}")
        if self.batch_size < 1:
            raise UsageError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.weight_decay < 0:
            raise UsageError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if not (0 < self.decay_factor <= 1):
            raise UsageError(f"decay_factor must be in (0, 1], got {self.decay_factor}")
        if self.decay_every < 0:
            raise UsageError(f"decay_every must be non-negative, got {self.decay_every}")
        if self.epsilon <= 0:
            raise UsageError(f"epsilon must be positive, got {self.epsilon}")
        if self.seed < 0:
            raise UsageError(f"seed must be non-negative, got {self.seed}")
        if self.log_every < 1:
            raise UsageError(f"log_every must be at least 1, got {self.log_every}")


def _field_types(cls) -> dict:
    """Field name -> type of a settings dataclass, with ``X | None`` read as X."""
    hints = typing.get_type_hints(cls)
    types = {}
    for field in dataclasses.fields(cls):
        args = [a for a in typing.get_args(hints[field.name]) if a is not type(None)]
        types[field.name] = args[0] if args else hints[field.name]
    return types


def _stored_config(ckpt: Checkpoint, path) -> RunConfig:
    """The settings checkpoint ``path`` was written with, type-checked and
    validated.

    A JSON int is accepted where a float is meant; any other type mismatch,
    None in a field that is not optional, or a value ``validate`` rejects is
    a data error (ValueError) naming the checkpoint.
    """
    hints = typing.get_type_hints(RunConfig)
    values = {}
    try:
        for key, typ in _field_types(RunConfig).items():
            if key not in ckpt.config:
                continue
            value = ckpt.config[key]
            if typ is float and type(value) is int:
                value = float(value)
            optional = value is None and type(None) in typing.get_args(hints[key])
            if type(value) is not typ and not optional:
                raise UsageError(f"setting {key!r}: expected {typ.__name__}, got {value!r}")
            values[key] = value
        cfg = RunConfig(**values)
        cfg.validate()
    except UsageError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
    return cfg


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines; '#' comments and blank lines are skipped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise UsageError(f"{path}:{lineno}: empty key or value")
        if key in pairs:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _coerce(key: str, value: str, typ):
    if typ is bool:
        low = value.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"config key {key!r}: expected a boolean, got {value!r}")
    try:
        return typ(value)
    except ValueError:
        raise UsageError(
            f"config key {key!r}: expected {typ.__name__}, got {value!r}"
        ) from None


def _config_from_args(cls, args):
    """defaults < config file < explicitly passed flags, then validated."""
    types = _field_types(cls)
    merged = dataclasses.asdict(cls())
    if args.config is not None:
        for key, value in parse_config_file(args.config).items():
            if key not in types:
                raise UsageError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, value, types[key])
    for key in types:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    cfg = cls(**merged)
    try:
        cfg.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return cfg


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message):
        raise UsageError(message)


def _add_config_flags(sub, cls) -> None:
    """``--config`` plus one ``--flag`` per field of the settings dataclass."""
    sub.add_argument("--config", default=None, help="key = value settings file")
    for key, typ in _field_types(cls).items():
        flag = "--" + key.replace("_", "-")
        if typ is bool:
            sub.add_argument(flag, action=argparse.BooleanOptionalAction, default=None)
        else:
            sub.add_argument(flag, type=typ, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="hlvc", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p, SynthConfig)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("train", help="train a model")
    p.add_argument("--vocab", help="vocabulary file")
    p.add_argument("--train", help="training shard")
    p.add_argument("--out", required=True, help="output checkpoint")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--log", default=None, help="also write loss lines to this file")
    _add_config_flags(p, RunConfig)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("evaluate", help="compute metrics for a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--shard", required=True)
    p.add_argument("--out", required=True, help="directory for report files")
    p.add_argument("--top-k", type=int, default=DEFAULT_TOP_K)
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("predict", help="write top-k labels per video")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--shard", required=True)
    p.add_argument("--out", required=True, help="output TSV file")
    p.add_argument("--top-k", type=int, default=DEFAULT_TOP_K)
    p.set_defaults(func=cmd_predict)

    return parser


def _check_out(path, is_dir: bool, flag: str = "--out") -> None:
    """Fail before any work on an output path, given as ``flag``, that cannot
    be written: an output directory (``is_dir``) may be missing, but its
    nearest existing path must be a directory; an output file's directory
    must exist, and it must not be a directory."""
    head = os.path.abspath(path)
    while is_dir and not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(os.path.dirname(head)):
        raise ValueError(f"{flag} {path}: directory {os.path.dirname(head)} does not exist")
    if os.path.isdir(head) != is_dir:
        raise ValueError(f"{flag} {path}: {head} is {'not ' if is_dir else ''}a directory")


def cmd_synth(args) -> int:
    cfg = _config_from_args(SynthConfig, args)
    _check_out(args.out, is_dir=True)
    hierarchy, train, val = synth_generate(cfg)
    os.makedirs(args.out, exist_ok=True)
    vocab_path = os.path.join(args.out, "vocab.txt")
    train_path = os.path.join(args.out, "train.shard")
    val_path = os.path.join(args.out, "val.shard")
    save_vocabulary(hierarchy, vocab_path)
    write_shard(train_path, train)
    write_shard(val_path, val)
    print(f"wrote {vocab_path} ({cfg.num_verticals} verticals, {cfg.num_entities} entities)")
    print(f"wrote {train_path} ({len(train)} videos)")
    print(f"wrote {val_path} ({len(val)} videos)")
    ents = np.array([rec.labels[1].size for rec in train], dtype=np.float64)
    verts = np.array([rec.labels[0].size for rec in train], dtype=np.float64)
    print(f"entities per video: mean={ents.mean():.4f}")
    print(f"verticals per video: mean={verts.mean():.4f}")
    return EXIT_OK


def _fit_normalizer(cfg: RunConfig, features: np.ndarray):
    if cfg.norm == "znorm":
        return fit_znorm(features, epsilon=cfg.epsilon, l2_after=cfg.l2)
    return fit_pca_whitening(features, epsilon=cfg.epsilon, l2_after=cfg.l2)


def _normalized(stats, features: np.ndarray) -> np.ndarray:
    """``apply_normalizer`` over ``BLOCK_ROWS``-row blocks of the float32
    ``features``, written back over them in place; returns ``features``.

    Each block is upcast into one reused float64 buffer as it is centered
    (the same bits as its ``astype(float64)``), normalized there, and rounded
    once into the rows it came from. So neither a second (N, D) array nor a
    float64 array larger than a block exists.
    """
    buf = np.empty((min(BLOCK_ROWS, len(features)), features.shape[1]))
    for start in range(0, len(features), BLOCK_ROWS):
        rows = features[start : start + BLOCK_ROWS]
        rows[...] = apply_normalizer(stats, rows, out=buf[: len(rows)])
    return features


def _check_training_set(path, shard, ckpt_path, config: dict) -> None:
    """A resumed run's shard must be the one its checkpoint was trained on:
    batch order depends on the record count, and the data on the CRC32.
    Checkpoints that predate these config entries are not checked."""
    want = (config.get("train_records"), config.get("train_crc32"))
    if None in want:
        return
    if any(type(v) is not int for v in want):
        raise ValueError(
            f"checkpoint {ckpt_path}: train_records and train_crc32 must be "
            f"integers, got {want[0]!r} and {want[1]!r}"
        )
    got = (len(shard), shard.crc32)
    if got != want:
        raise ValueError(
            f"shard {path} ({got[0]} records, CRC32 {got[1]:#010x}) is not the "
            f"training shard of checkpoint {ckpt_path} ({want[0]} records, "
            f"CRC32 {want[1]:#010x})"
        )


def _check_records(path, shard, hierarchy) -> None:
    sizes = hierarchy.sizes
    if len(shard.labels) != len(sizes):
        raise ValueError(
            f"shard {path} has {len(shard.labels)} label layers, vocabulary has {len(sizes)}"
        )
    for t, (layer, size) in enumerate(zip(shard.labels, sizes)):
        # Labels are read as u32, so only the upper bound can fail.
        beyond = np.flatnonzero(layer.indices >= size)
        if beyond.size:
            row = np.searchsorted(layer.indptr, beyond[0], side="right") - 1
            raise ValueError(f"record {shard.video_ids[row]!r} labels out of range in layer {t}")


# Records per chunk of ``_warn_missing_parents``, whose temporaries grow
# with a chunk's labels, not with the shard's.
_PARENT_CHECK_ROWS = 65536


def _warn_missing_parents(path, shard, hierarchy) -> None:
    """Warn on stderr, naming the shard and a count, when records miss a
    parent of their finest-layer labels in the layer above.

    Records are checked ``_PARENT_CHECK_ROWS`` at a time."""
    if hierarchy.num_layers < 2:
        return
    coarse, fine = shard.labels[-2], shard.labels[-1]
    edges = [hierarchy.edges[e] for e in range(hierarchy.sizes[-1])]
    parents = CsrLabels(
        np.cumsum([0] + [len(p) for p in edges]),
        np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64),
    )
    width = hierarchy.sizes[-2]
    count = 0
    for start in range(0, len(shard), _PARENT_CHECK_ROWS):
        rows = np.arange(start, min(start + _PARENT_CHECK_ROWS, len(shard)))
        fine_ptr = fine.indptr[start : rows[-1] + 2]
        coarse_ptr = coarse.indptr[start : rows[-1] + 2]
        fanout, need = parents.gather(fine.indices[fine_ptr[0] : fine_ptr[-1]])
        need_rows = np.repeat(np.repeat(rows, np.diff(fine_ptr)), fanout)
        have_rows = np.repeat(rows, np.diff(coarse_ptr))
        have = have_rows * width + coarse.indices[coarse_ptr[0] : coarse_ptr[-1]]
        # The rows missing a parent come sorted, so the distinct ones are
        # the first and each that differs from the one before.
        missing = need_rows[~np.isin(need_rows * width + need, have)]
        count += min(missing.size, 1) + np.count_nonzero(np.diff(missing))
    if count:
        print(
            f"warning: shard {path}: {count} records miss a parent of their "
            f"{hierarchy.layers[-1].name} labels in their {hierarchy.layers[-2].name} labels",
            file=sys.stderr,
        )


def _read_nonempty(path) -> Shard:
    """A shard's columns; an empty shard is a data error."""
    shard = read_shard(path)
    if not len(shard):
        raise ValueError(f"shard {path} is empty")
    return shard


def _load_inputs(path, hierarchy, features: str, ckpt: Checkpoint | None = None):
    """A shard's columns and raw features, checked against the vocabulary and,
    when a checkpoint is given, against its layer sizes, feature dim and
    normalizer."""
    if ckpt is not None and ckpt.config.get("layer_sizes") != list(hierarchy.sizes):
        raise ValueError("checkpoint layer sizes do not match the vocabulary")
    shard = _read_nonempty(path)
    _check_records(path, shard, hierarchy)
    x = shard.features(include_audio=features == "rgb+audio")
    if ckpt is not None:
        if x.shape[1] != ckpt.config.get("feature_dim"):
            raise ValueError(
                f"shard feature dim {x.shape[1]} does not match checkpoint "
                f"feature dim {ckpt.config.get('feature_dim')}"
            )
        if ckpt.normalizer is None:
            raise ValueError("checkpoint carries no normalizer")
    return shard, x


def _restore(state: dict, stored: dict) -> None:
    """Copy checkpoint arrays into ``state`` in place; names and shapes must
    match. Each stored array is released as soon as it is copied, so a
    restore empties ``stored`` (a ``Checkpoint.tensors``) and the process
    holds one copy of the model, not two."""
    if set(stored) != set(state):
        missing = sorted(set(state) - set(stored))
        extra = sorted(set(stored) - set(state))
        raise ValueError(
            f"checkpoint tensors do not match the model: missing {missing}, extra {extra}"
        )
    for name, arr in state.items():
        if stored[name].shape != arr.shape:
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {stored[name].shape}, "
                f"expected {arr.shape}"
            )
        arr[...] = stored.pop(name)


def cmd_train(args) -> int:
    if args.vocab is None or args.train is None:
        raise UsageError("train requires --vocab and --train")
    _check_out(args.out, is_dir=False)
    if args.log:
        _check_out(args.log, is_dir=False, flag="--log")
    resume = None
    if args.resume is None:
        cfg = _config_from_args(RunConfig, args)
    else:
        resume = load_checkpoint(args.resume)
        cfg = _stored_config(resume, args.resume)
        if args.iters is not None:
            cfg = dataclasses.replace(cfg, iters=args.iters)
            cfg.validate()
    cfg = cfg.resolved()

    hierarchy = load_vocabulary(args.vocab)
    shard, features = _load_inputs(args.train, hierarchy, cfg.features, resume)
    if resume is not None:
        _check_training_set(args.train, shard, args.resume, resume.config)
    _warn_missing_parents(args.train, shard, hierarchy)
    dim = int(features.shape[1])
    stats = resume.normalizer if resume is not None else _fit_normalizer(cfg, features)
    # Training runs in the shard's float32: the model, the Adam state and
    # the features.
    x_all = _normalized(stats, features)

    family = MODELS[cfg.model]
    params = family.init(hierarchy, dim, cfg.seed)
    tensors = params.tensors()
    adam = optim.init_adam(
        tensors,
        cfg.lr,
        weight_decay=cfg.weight_decay,
        decay_factor=cfg.decay_factor,
        decay_every=cfg.decay_every,
    )
    # The whole training state by checkpoint name; every entry shares storage
    # with the parameters or the Adam moments.
    state = dict(tensors)
    for name in tensors:
        state[f"{_ADAM_PREFIX}m.{name}"] = adam.m[name]
        state[f"{_ADAM_PREFIX}v.{name}"] = adam.v[name]
    if resume is not None:
        _restore(state, resume.tensors)
        adam.step = resume.step

    log_fh = open(args.log, "w", encoding="utf-8") if args.log else None

    def emit(line: str) -> None:
        print(line)
        if log_fh is not None:
            log_fh.write(line + "\n")

    try:
        fit(family, params, adam, x_all, shard.labels, hierarchy.sizes,
            batch_size=cfg.batch_size, seed=cfg.seed, iters=cfg.iters,
            log_every=cfg.log_every, log=emit)
    finally:
        if log_fh is not None:
            log_fh.close()

    config = dataclasses.asdict(cfg)
    config.update(
        {
            "command": "train",
            "feature_dim": dim,
            "layer_sizes": list(hierarchy.sizes),
            "layer_names": [layer.name for layer in hierarchy.layers],
            "train_records": len(shard),
            "train_crc32": shard.crc32,
        }
    )
    save_checkpoint(args.out, step=adam.step, config=config, tensors=state, normalizer=stats)
    print(f"trained {cfg.model} for {adam.step} steps; wrote {args.out}")
    return EXIT_OK


def _layer_scores(family, ckpt: Checkpoint, hierarchy, x: np.ndarray, labeled=None) -> dict:
    """Per-layer label probabilities from the checkpoint's model, of the
    ``MODELS`` family ``family``, loaded without its Adam moments.

    Every layer the model exports weights for is scored by
    ``baseline.predict``; the parent of the finest layer, if the model
    exports none for it, is induced from the finest layer's scores. With a
    ``labeled`` shard, each of its records must hold labels in every layer
    to be scored (PERR is undefined otherwise), checked before scoring.
    """
    params = family.init(hierarchy, x.shape[1], seed=None)
    _restore(params.tensors(), ckpt.tensors)
    weights = family.layer_weights(params, hierarchy)
    m = hierarchy.num_layers
    induced = [m - 2] if m >= 2 and m - 2 not in weights else []
    if labeled is not None:
        for t in sorted([*weights, *induced]):
            empty = np.flatnonzero(np.diff(labeled.labels[t].indptr) == 0)
            if empty.size:
                name = hierarchy.layers[t].name
                raise ValueError(f"record {labeled.video_ids[empty[0]]!r} has no {name} labels; "
                                 "PERR is undefined")
    scores = {t: baseline.predict(baseline.LogRegParams(w), x) for t, w in weights.items()}
    for t in induced:
        scores[t] = hierarchy.induce_vertical_scores(scores[m - 1])
    return scores


def _prepare_eval(args, evaluating: bool = False):
    """The vocabulary, the shard and its per-layer scores for ``evaluate``
    (``evaluating``: ``--out`` is a report directory, and every scored layer
    must label each record) or ``predict`` (``--out`` is a TSV file)."""
    if args.top_k < 1:
        raise UsageError(f"top_k must be at least 1, got {args.top_k}")
    _check_out(args.out, is_dir=evaluating)
    ckpt = load_checkpoint(args.ckpt, skip=(_ADAM_PREFIX,))
    cfg = _stored_config(ckpt, args.ckpt)
    hierarchy = load_vocabulary(args.vocab)
    shard, features = _load_inputs(args.shard, hierarchy, cfg.features, ckpt)
    x = _normalized(ckpt.normalizer, features)
    labeled = shard if evaluating else None
    return hierarchy, shard, _layer_scores(MODELS[cfg.model], ckpt, hierarchy, x, labeled)


def cmd_evaluate(args) -> int:
    hierarchy, shard, scores = _prepare_eval(args, evaluating=True)
    _warn_missing_parents(args.shard, shard, hierarchy)
    os.makedirs(args.out, exist_ok=True)
    for t in sorted(scores):
        layer = hierarchy.layers[t]
        pred = PredictionSet(scores[t], shard.labels[t])
        report = evaluate(pred, layer=layer.name, top_k=args.top_k)
        base = os.path.join(args.out, f"eval_{layer.name}")
        with atomic_open(base + ".txt", "w", encoding="utf-8") as fh:
            fh.write(report.to_text())
        with atomic_open(base + ".json", "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        print(
            f"{layer.name}: mean_ap={report.mean_ap:.6f} gap={report.gap:.6f} "
            f"perr={report.perr:.6f} hit_at_1={report.hit_at_1:.6f}"
        )
    return EXIT_OK


# Bytes of each score's text: one integer digit, '.', six decimals, '\n'.
_SCORE_BYTES = 9
_DECIMAL_PLACES = 10 ** np.arange(6, -1, -1, dtype=np.int32)

# Longest video id, in UTF-8 bytes, for which predict writes a whole block
# of videos at once. A block with a longer id is written in row slices, each
# no larger than a whole block padded to this id length.
_ID_BYTES = 64


def _utf8_table(encoded) -> tuple[np.ndarray, np.ndarray]:
    """Each byte string as a row of a zero-padded uint8 table, with the mask
    of its real bytes."""
    lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
    keep = np.arange(lengths.max(initial=0)) < lengths[:, None]
    table = np.zeros(keep.shape, np.uint8)
    table[keep] = np.frombuffer(b"".join(encoded), np.uint8)
    return table, keep


def _score_text(scores: np.ndarray) -> np.ndarray:
    """The bytes of ``f"{s:.6f}\\n"`` for each float32 score s in [+0, 1], on a
    new last axis of length 9.

    A float32 times 1e6 = 15625 * 2**6 is exact in float64 (a 24-bit
    mantissa times a 14-bit integer), and ``rint`` rounds it half to even,
    as Python's correctly rounded '.6f' does, so the digits are exact. Any
    other dtype or value (negative, -0.0, above 1, NaN) is a ValueError.
    """
    if scores.dtype != np.float32:
        raise ValueError(f"scores must be float32 to be written, got {scores.dtype}")
    if not ((scores >= 0) & (scores <= 1)).all() or np.signbit(scores).any():
        raise ValueError("scores to be written must lie in [+0, 1]")
    micro = np.rint(scores.astype(np.float64) * 1e6).astype(np.int32)
    text = np.empty(scores.shape + (_SCORE_BYTES,), np.uint8)
    text[..., [0, 2, 3, 4, 5, 6, 7]] = micro[..., None] // _DECIMAL_PLACES % 10 + ord("0")
    text[..., 1] = ord(".")
    text[..., 8] = ord("\n")
    return text


def _lines(ids, fields, field_keep, picked, score_text) -> np.ndarray:
    """The TSV bytes of the videos ``ids`` (UTF-8), whose lines print the
    field rows ``picked`` and the texts ``score_text`` (see ``cmd_predict``)."""
    ids, id_keep = _utf8_table(ids)
    id_shape = picked.shape + (ids.shape[1],)
    text = np.concatenate(
        [np.broadcast_to(ids[:, None], id_shape), fields[picked], score_text], axis=2
    )
    keep = np.concatenate(
        [
            np.broadcast_to(id_keep[:, None], id_shape),
            field_keep[picked],
            np.ones(score_text.shape, bool),
        ],
        axis=2,
    )
    return text[keep]


def cmd_predict(args) -> int:
    """Write one ``video, layer, label, score`` line per top-k label, best
    first, ranked and written ``BLOCK_ROWS`` videos at a time.

    A block's bytes are one (videos, lines per video, width) uint8 matrix:
    the zero-padded video id, the padded "\\tlayer\\tlabel\\t" field of the
    line's label and the 9-byte score text. The masked real bytes, in
    row-major order, are the block's lines. A block whose longest id exceeds
    ``_ID_BYTES`` builds that matrix for a slice of its videos at a time, so
    one long id cannot inflate it beyond a block of ordinary ids.
    """
    hierarchy, shard, scores = _prepare_eval(args)
    scored = sorted(scores)
    layers = [hierarchy.layers[t] for t in scored]
    # One field row per label of every scored layer; a layer's rows start at
    # its offset.
    fields, field_keep = _utf8_table(
        [f"\t{layer.name}\t{label}\t".encode() for layer in layers for label in layer.labels]
    )
    line_bytes = fields.shape[1] + _SCORE_BYTES
    offsets = np.cumsum([0] + [layer.size for layer in layers[:-1]])
    count = 0
    with atomic_open(args.out, "wb") as fh:
        for start in range(0, len(shard), BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            picked, best = [], []
            for t, offset in zip(scored, offsets):
                block = scores[t][rows]
                top = top_labels(block, args.top_k)
                picked.append(top + offset)
                best.append(np.take_along_axis(block, top, axis=1))
            picked = np.hstack(picked)
            score_text = _score_text(np.hstack(best))
            ids = [video_id.encode() for video_id in shard.video_ids[rows]]
            longest = max(map(len, ids))
            step = max(1, BLOCK_ROWS * (_ID_BYTES + line_bytes) // (longest + line_bytes))
            for i in range(0, len(ids), step):
                fh.write(_lines(ids[i : i + step], fields, field_keep,
                                picked[i : i + step], score_text[i : i + step]))
            count += picked.size
    print(f"wrote {count} predictions for {len(shard)} videos to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        VocabularyError,
        ShardError,
        CheckpointError,
        FileExistsError,
        FileNotFoundError,
        IsADirectoryError,
        NotADirectoryError,
        PermissionError,
        KeyError,
        ValueError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FloatingPointError, ConvergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
