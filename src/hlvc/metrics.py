"""Ranking metrics for multi-label video classification.

All metrics share one deterministic tie rule: equal scores rank by lower
index (video index for per-class rankings, label index within a video, and
video-then-label in the pooled global ranking). Per-video rankings sort only
the top labels they read (``top_labels``), once per prediction set, and
hit@1, PERR and the global pool all read that one ranking. Per-class
rankings are never sorted at all: each positive's rank is counted from the
class's sorted score values (``_ranks``), read from class-major copies of
``CLASS_GROUP`` columns at a time. The pooled global ranking is one stable
sort on negated scores.
"""

from __future__ import annotations

import dataclasses
import json
from functools import cached_property

import numpy as np

from .features import BLOCK_ROWS

DEFAULT_TOP_K = 20

# Classes whose scores ``mean_average_precision`` copies into class-major
# order at once: 16 float32 columns are one 64-byte cache line of each row.
# The copy goes ``BLOCK_ROWS`` rows at a time, so each tile it reads stays in
# cache while it is transposed.
CLASS_GROUP = 16


class PredictionSet:
    """Scores (V, C) for V videos over C labels plus per-video positives.

    Float scores are kept in their dtype, without a copy; the metrics only
    compare them, so float32 scores give the same results as their float64
    upcast.

    ``positives`` holds each video's labels: a list of label sequences, or
    compressed sparse rows (any object with ``indptr`` and ``indices``, such
    as a shard's ``CsrLabels``). They are kept flat, sorted and unique per
    video: ``pos_videos`` and ``pos_labels`` list every positive as a
    (video, label) pair in video order, and ``num_positives`` counts them
    per video. ``positives`` reads them back as one int64 array per video.
    """

    def __init__(self, scores, positives) -> None:
        scores = np.asarray(scores)
        self.scores = scores.astype(np.promote_types(scores.dtype, np.float32), copy=False)
        if self.scores.ndim != 2 or 0 in self.scores.shape:
            raise ValueError(f"scores must be a non-empty (V, C) array, got {self.scores.shape}")
        if not np.isfinite(self.scores).all():
            raise ValueError("scores contain non-finite values")
        csr = hasattr(positives, "indptr")
        sets = len(positives.indptr) - 1 if csr else len(positives)
        if sets != self.num_videos:
            raise ValueError(f"{sets} positive sets for {self.num_videos} videos")
        if csr:
            counts = np.diff(positives.indptr)
            labels = np.asarray(positives.indices, dtype=np.int64)
        else:
            parts = [p if isinstance(p, np.ndarray) else list(p) for p in positives]
            counts = np.fromiter(map(len, parts), dtype=np.int64, count=len(parts))
            labels = np.concatenate(parts, dtype=np.int64, casting="unsafe")
        videos = np.repeat(np.arange(self.num_videos), counts)
        out_of_range = (labels < 0) | (labels >= self.num_labels)
        if out_of_range.any():
            v = videos[out_of_range.argmax()]
            pos = np.unique(labels[videos == v])
            raise ValueError(f"positive label index out of range in {pos}")
        # One sort of (video, label) keys orders and de-duplicates every row.
        # The stable sort is near-linear on rows that are already in order.
        keys = np.sort(videos * self.num_labels + labels, kind="stable")
        keys = keys[np.diff(keys, prepend=-1) > 0]
        videos, labels = np.divmod(keys, self.num_labels)
        counts = np.bincount(videos, minlength=self.num_videos)
        self.num_positives = counts
        self.pos_videos = videos
        self.pos_labels = labels
        self._top = None

    @property
    def num_videos(self) -> int:
        return self.scores.shape[0]

    @property
    def num_labels(self) -> int:
        return self.scores.shape[1]

    @cached_property
    def positives(self) -> list:
        ends = np.cumsum(self.num_positives).tolist()
        return [self.pos_labels[a:b] for a, b in zip([0] + ends[:-1], ends)]

    @cached_property
    def pos_mask(self) -> np.ndarray:
        mask = np.zeros(self.scores.shape, dtype=bool)
        mask[self.pos_videos, self.pos_labels] = True
        return mask

    def ranked_labels(self, k: int) -> np.ndarray:
        """``top_labels(self.scores, k)``, read as a prefix of one cached call.

        A miss ranks at least as many labels as any video has positives
        (PERR's largest G), so PERR reads the same result as GAP. A stable
        ranking's top-k is the first k of its top-K for any K >= k, so
        narrower requests reuse the cache and only a wider one recomputes.
        Each row's ranking is its own, so it is computed ``BLOCK_ROWS`` rows
        at a time into one (V, K) result, and the temporaries of
        ``top_labels`` stay the size of one block.
        """
        k = min(k, self.num_labels)
        if self._top is None or self._top.shape[1] < k:
            width = max(k, int(self.num_positives.max()))
            self._top = np.empty((self.num_videos, width), np.intp)
            for r in range(0, self.num_videos, BLOCK_ROWS):
                self._top[r : r + BLOCK_ROWS] = top_labels(self.scores[r : r + BLOCK_ROWS], width)
        return self._top[:, :k]


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
    take = scores >= kth
    # A row that takes more than k labels splits its tie at the k-th score.
    # Only those rows need the running count that keeps their lowest tied
    # indices; every other row takes exactly its k.
    split = np.flatnonzero(np.count_nonzero(take, axis=1) > k)
    if split.size:
        ties = scores[split] == kth[split]
        need = k - np.count_nonzero(take[split] & ~ties, axis=1)
        take[split] &= ~ties | (np.cumsum(ties, axis=1, dtype=np.int32) <= need[:, None])
    cols = (np.flatnonzero(take) % c).reshape(-1, k)
    order = np.argsort(-np.take_along_axis(scores, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def hit_at_1(pred: PredictionSet) -> float:
    """Fraction of videos whose single top-scored label is a positive.

    The top label is the first of the cached ranking: like ``argmax``, the
    first maximum.
    """
    top = pred.ranked_labels(1)[:, 0]
    return float(pred.pos_mask[np.arange(pred.num_videos), top].mean())


def perr(pred: PredictionSet) -> float:
    """Precision at equal recall rate.

    For each video with G positives, the precision within its G top-scored
    labels, averaged over videos. Every video must have at least one
    positive.
    """
    g = pred.num_positives
    if not g.all():
        v = int(np.argmin(g))
        raise ValueError(f"video index {v} has no positive labels; PERR is undefined")
    rows = np.arange(pred.num_videos)
    hits = pred.pos_mask[rows[:, None], pred.ranked_labels(int(g.max()))]
    precision = np.cumsum(hits, axis=1)[rows, g - 1] / g
    # A running total in video order (cumsum, not sum's pairwise reduction),
    # so the value does not depend on how numpy blocks the sum.
    return float(np.cumsum(precision)[-1]) / pred.num_videos


def _ranks(column: np.ndarray, ordered: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """1-based ranks of the videos ``rows`` when ranked by ``column``, given
    ``ordered``, the column's values sorted ascending.

    A video's rank is 1 + the videos with a higher score + the videos with
    an equal score at a lower index, which is its position in a stable
    ``argsort(-column)``. Higher scores are counted by binary search in the
    sorted values; equal ones by one pass over the column per distinct score
    that one of ``rows`` shares with another video. Both counts are sums
    over videos, so they add up over blocks of rows.
    """
    scores = column[rows]
    first = np.searchsorted(ordered, scores, side="left")
    after = np.searchsorted(ordered, scores, side="right")
    ranks = column.size - after + 1
    shared = np.flatnonzero(after - first > 1)
    if shared.size:
        # Equal scores share ``first`` (-0.0 and 0.0 included), so it names
        # the tie group.
        starts, group = np.unique(first[shared], return_inverse=True)
        for j, start in enumerate(starts):
            tied = shared[group == j]
            equal = np.flatnonzero(column == ordered[start])
            ranks[tied] += np.searchsorted(equal, rows[tied])
    return ranks


def mean_average_precision(pred: PredictionSet) -> tuple[float, np.ndarray]:
    """Macro mAP and the per-class AP vector.

    Each class with at least one positive ranks all videos by its score;
    AP averages precision at each positive's rank. Classes without any
    positive get NaN and are excluded from the mean.

    The scores are read ``CLASS_GROUP`` classes at a time: the group's
    columns are copied ``BLOCK_ROWS`` rows at a time into one contiguous
    class-major array, and the rows of its classes with positives into a
    second one, where each is sorted. Those two (``CLASS_GROUP``, V) arrays
    are all the score memory it adds.
    """
    scores = pred.scores
    counts = np.bincount(pred.pos_labels, minlength=pred.num_labels)
    has_pos = counts > 0
    if not has_pos.any():
        raise ValueError("no class has any positive example; mAP is undefined")
    per_class = np.full(pred.num_labels, np.nan)
    videos = pred.pos_videos[np.argsort(pred.pos_labels, kind="stable")]
    ends = np.cumsum(counts)
    starts = ends - counts
    columns = np.empty((min(CLASS_GROUP, pred.num_labels), pred.num_videos), scores.dtype)
    ordered = np.empty_like(columns)
    for c0 in range(0, pred.num_labels, CLASS_GROUP):
        classes = np.flatnonzero(has_pos[c0 : c0 + CLASS_GROUP])
        if not classes.size:
            continue
        group = scores[:, c0 : c0 + CLASS_GROUP]
        cols = columns[: group.shape[1]]
        for r in range(0, pred.num_videos, BLOCK_ROWS):
            cols[:, r : r + BLOCK_ROWS] = group[r : r + BLOCK_ROWS].T
        # ``classes`` are in range; "clip" skips the buffer that the default
        # "raise" mode would copy ``out`` through.
        sorted_cols = np.take(cols, classes, axis=0, out=ordered[: classes.size], mode="clip")
        sorted_cols.sort(axis=1)
        for j, c in enumerate(classes + c0):
            ranks = np.sort(_ranks(cols[c - c0], sorted_cols[j], videos[starts[c] : ends[c]]))
            per_class[c] = float((np.arange(1, ranks.size + 1) / ranks).mean())
    return float(per_class[has_pos].mean()), per_class


def global_average_precision(pred: PredictionSet, top_k: int = DEFAULT_TOP_K) -> float:
    """AP over the pooled top-k predictions of every video.

    Each video contributes its top_k highest-scored labels to one global
    list, ranked by score with (video, label) index as the tiebreak. The
    denominator counts all positives, including any pushed out by the cap.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    total_pos = pred.pos_labels.size
    if total_pos == 0:
        raise ValueError("no positives anywhere; global AP is undefined")
    # The pool is row-major: video by video, each in ranked order. Equal
    # scores of one video are ranked in label order, so a stable sort of the
    # pool orders ties by (video, label), as ``lexsort((cols, rows, -score))``.
    cols = pred.ranked_labels(top_k)
    pooled_scores = np.take_along_axis(pred.scores, cols, axis=1).ravel()
    rel = np.take_along_axis(pred.pos_mask, cols, axis=1).ravel()
    rel = rel[np.argsort(-pooled_scores, kind="stable")]
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
