"""Brute-force reference metrics, kept deliberately loop-based.

Used as the independent route for the oracle-equivalence tests: no stable
argsort tricks, no cumsum, everything spelled out per video / per class with
explicit (score, index) tie keys. Slow but obviously correct.
"""


def ref_hit_at_1(scores, positives):
    hits = 0
    for v in range(len(scores)):
        row = scores[v]
        best = 0
        for c in range(1, len(row)):
            if row[c] > row[best]:  # strict: the first maximum keeps the win
                best = c
        if best in positives[v]:
            hits += 1
    return hits / len(scores)


def ref_perr(scores, positives):
    total = 0.0
    for v in range(len(scores)):
        pos = set(positives[v])
        g = len(pos)
        if g == 0:
            raise ValueError("a video without positives has no equal-recall point")
        ranked = sorted(range(len(scores[v])), key=lambda c: (-scores[v][c], c))
        total += sum(1 for c in ranked[:g] if c in pos) / g
    return total / len(scores)


def ref_average_precision(class_scores, class_rel):
    """AP for one class: videos ranked by score, lower video index on ties."""
    order = sorted(range(len(class_scores)), key=lambda v: (-class_scores[v], v))
    hits = 0
    ap = 0.0
    for rank, v in enumerate(order, start=1):
        if class_rel[v]:
            hits += 1
            ap += hits / rank
    if hits == 0:
        return None
    return ap / hits


def ref_mean_average_precision(scores, positives):
    num_classes = len(scores[0])
    pos_sets = [set(p) for p in positives]
    aps = []
    per_class = []
    for c in range(num_classes):
        rel = [c in pos_sets[v] for v in range(len(scores))]
        ap = ref_average_precision([row[c] for row in scores], rel)
        per_class.append(ap)
        if ap is not None:
            aps.append(ap)
    if not aps:
        raise ValueError("mAP undefined without any positive")
    return sum(aps) / len(aps), per_class


def ref_global_average_precision(scores, positives, top_k):
    pos_sets = [set(p) for p in positives]
    total_pos = sum(len(p) for p in pos_sets)
    if total_pos == 0:
        raise ValueError("gAP undefined without any positive")
    pool = []
    for v in range(len(scores)):
        row = scores[v]
        ranked = sorted(range(len(row)), key=lambda c: (-row[c], c))
        for c in ranked[: min(top_k, len(row))]:
            pool.append((-row[c], v, c))
    pool.sort()
    hits = 0
    ap = 0.0
    for rank, (_, v, c) in enumerate(pool, start=1):
        if c in pos_sets[v]:
            hits += 1
            ap += hits / rank
    return ap / total_pos


def argsort_mean_average_precision(scores, positives):
    """Per-class AP from one stable argsort of each class's column.

    The vectorized route that rank counting replaced, kept as its bitwise
    reference: the same (video, rank) pairs averaged in the same order.
    ``scores`` is a (V, C) float array and ``positives`` a list of per-video
    label index collections.
    """
    import numpy as np

    v, c = scores.shape
    mask = np.zeros((v, c), dtype=bool)
    for i, pos in enumerate(positives):
        mask[i, list(pos)] = True
    per_class = np.full(c, np.nan)
    ranks = np.arange(1, v + 1, dtype=np.float64)
    has_pos = mask.any(axis=0)
    if not has_pos.any():
        raise ValueError("mAP undefined without any positive")
    for j in np.nonzero(has_pos)[0]:
        order = np.argsort(-scores[:, j], kind="stable")
        rel = mask[order, j]
        cum = np.cumsum(rel)
        per_class[j] = float((cum[rel] / ranks[rel]).mean())
    return float(per_class[has_pos].mean()), per_class
