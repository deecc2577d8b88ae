"""Ranking metrics for multi-label video classification.

All metrics share one deterministic tie rule: equal scores rank by lower
index (video index for per-class rankings, label index within a video, and
video-then-label in the pooled global ranking). Rankings use stable sorts
on negated scores so the rule holds exactly; per-video rankings sort only
the top labels they read (``top_labels``).
"""

from __future__ import annotations

import dataclasses
import json
from functools import cached_property

import numpy as np

DEFAULT_TOP_K = 20


@dataclasses.dataclass
class PredictionSet:
    """Scores (V, C) for V videos over C labels plus per-video positives."""

    scores: np.ndarray
    positives: list

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 2 or 0 in self.scores.shape:
            raise ValueError(f"scores must be a non-empty (V, C) array, got {self.scores.shape}")
        if not np.isfinite(self.scores).all():
            raise ValueError("scores contain non-finite values")
        if len(self.positives) != self.num_videos:
            raise ValueError(
                f"{len(self.positives)} positive sets for {self.num_videos} videos"
            )
        cleaned = []
        for pos in self.positives:
            pos = np.unique(np.asarray(list(pos), dtype=np.int64))
            if pos.size and (pos[0] < 0 or pos[-1] >= self.num_labels):
                raise ValueError(f"positive label index out of range in {pos}")
            cleaned.append(pos)
        self.positives = cleaned

    @property
    def num_videos(self) -> int:
        return self.scores.shape[0]

    @property
    def num_labels(self) -> int:
        return self.scores.shape[1]

    @cached_property
    def pos_mask(self) -> np.ndarray:
        mask = np.zeros(self.scores.shape, dtype=bool)
        for v, pos in enumerate(self.positives):
            mask[v, pos] = True
        return mask


def top_labels(scores: np.ndarray, k: int) -> np.ndarray:
    """Each row's k best label indices, best first: (V, min(k, C)).

    The result equals ``np.argsort(-scores, axis=1, kind="stable")[:, :k]``
    for finite scores, ties included (equal scores rank by lower index).
    Each row is partitioned at its k-th largest score; the slots tied at that
    score go to the lowest indices, and only the k picked labels are sorted.
    """
    c = scores.shape[1]
    k = min(k, c)
    kth = np.partition(scores, c - k, axis=1)[:, c - k, None]
    take = scores > kth
    tied = scores == kth
    need = k - take.sum(axis=1, keepdims=True)
    take |= tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= need)
    cols = np.nonzero(take)[1].reshape(-1, k)
    order = np.argsort(-np.take_along_axis(scores, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def hit_at_1(pred: PredictionSet) -> float:
    """Fraction of videos whose single top-scored label is a positive."""
    top = pred.scores.argmax(axis=1)
    return float(pred.pos_mask[np.arange(pred.num_videos), top].mean())


def perr(pred: PredictionSet) -> float:
    """Precision at equal recall rate.

    For each video with G positives, the precision within its G top-scored
    labels, averaged over videos. Every video must have at least one
    positive.
    """
    g = np.array([pos.size for pos in pred.positives])
    if not g.all():
        v = int(np.argmin(g))
        raise ValueError(f"video {v} has no positive labels; PERR is undefined")
    rows = np.arange(pred.num_videos)
    hits = pred.pos_mask[rows[:, None], top_labels(pred.scores, int(g.max()))]
    precision = np.cumsum(hits, axis=1)[rows, g - 1] / g
    # A running total in video order (cumsum, not sum's pairwise reduction),
    # so the value does not depend on how numpy blocks the sum.
    return float(np.cumsum(precision)[-1]) / pred.num_videos


def mean_average_precision(pred: PredictionSet) -> tuple[float, np.ndarray]:
    """Macro mAP and the per-class AP vector.

    Each class with at least one positive ranks all videos by its score;
    AP averages precision at each positive's rank. Classes without any
    positive get NaN and are excluded from the mean.
    """
    v = pred.num_videos
    per_class = np.full(pred.num_labels, np.nan)
    ranks = np.arange(1, v + 1, dtype=np.float64)
    has_pos = pred.pos_mask.any(axis=0)
    if not has_pos.any():
        raise ValueError("no class has any positive example; mAP is undefined")
    for c in np.nonzero(has_pos)[0]:
        order = np.argsort(-pred.scores[:, c], kind="stable")
        rel = pred.pos_mask[order, c]
        cum = np.cumsum(rel)
        per_class[c] = float((cum[rel] / ranks[rel]).mean())
    return float(per_class[has_pos].mean()), per_class


def global_average_precision(pred: PredictionSet, top_k: int = DEFAULT_TOP_K) -> float:
    """AP over the pooled top-k predictions of every video.

    Each video contributes its top_k highest-scored labels to one global
    list, ranked by score with (video, label) index as the tiebreak. The
    denominator counts all positives, including any pushed out by the cap.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    total_pos = sum(int(p.size) for p in pred.positives)
    if total_pos == 0:
        raise ValueError("no positives anywhere; global AP is undefined")
    k = min(top_k, pred.num_labels)
    rows = np.repeat(np.arange(pred.num_videos), k)
    cols = top_labels(pred.scores, k).ravel()
    pooled_scores = pred.scores[rows, cols]
    rel = pred.pos_mask[rows, cols]
    ranking = np.lexsort((cols, rows, -pooled_scores))
    rel = rel[ranking]
    cum = np.cumsum(rel)
    ranks = np.arange(1, rel.size + 1, dtype=np.float64)
    return float((cum[rel] / ranks[rel]).sum() / total_pos)


@dataclasses.dataclass
class EvalReport:
    """All metrics for one concept layer, serializable as text and JSON."""

    layer: str
    num_videos: int
    mean_ap: float
    gap: float
    perr: float
    hit_at_1: float
    per_class_ap: np.ndarray

    def to_text(self) -> str:
        return (
            f"layer = {self.layer}\n"
            f"videos = {self.num_videos}\n"
            f"mean_ap = {self.mean_ap:.6f}\n"
            f"gap = {self.gap:.6f}\n"
            f"perr = {self.perr:.6f}\n"
            f"hit_at_1 = {self.hit_at_1:.6f}\n"
        )

    def to_json(self) -> str:
        per_class = [None if np.isnan(x) else float(x) for x in self.per_class_ap]
        return json.dumps(
            {
                "layer": self.layer,
                "videos": self.num_videos,
                "mean_ap": self.mean_ap,
                "gap": self.gap,
                "perr": self.perr,
                "hit_at_1": self.hit_at_1,
                "per_class_ap": per_class,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        raw = json.loads(text)
        per_class = np.array(
            [np.nan if x is None else float(x) for x in raw["per_class_ap"]]
        )
        return cls(
            layer=raw["layer"],
            num_videos=int(raw["videos"]),
            mean_ap=float(raw["mean_ap"]),
            gap=float(raw["gap"]),
            perr=float(raw["perr"]),
            hit_at_1=float(raw["hit_at_1"]),
            per_class_ap=per_class,
        )


def evaluate(pred: PredictionSet, layer: str = "", top_k: int = DEFAULT_TOP_K) -> EvalReport:
    """Compute every metric for one layer's predictions."""
    mean_ap, per_class = mean_average_precision(pred)
    return EvalReport(
        layer=layer,
        num_videos=pred.num_videos,
        mean_ap=mean_ap,
        gap=global_average_precision(pred, top_k=top_k),
        perr=perr(pred),
        hit_at_1=hit_at_1(pred),
        per_class_ap=per_class,
    )
