"""The one-list predict writer, kept as the byte reference for ``cli.cmd_predict``.

``cmd_predict`` ranks and writes its videos a block of rows at a time; the
TSV it writes must equal, byte for byte, what this writer makes by ranking
every video at once and joining all the lines into one string.
"""

import numpy as np

from hlvc.atomic import atomic_open
from hlvc.cli import _prepare_eval
from hlvc.metrics import top_labels


def reference_predict(args) -> None:
    hierarchy, shard, scores = _prepare_eval(args)
    ranked = []
    for t in sorted(scores):
        top = top_labels(scores[t], args.top_k)
        best = np.take_along_axis(scores[t], top, axis=1)
        ranked.append((hierarchy.layers[t], top.tolist(), best.tolist()))
    lines = []
    for i, video_id in enumerate(shard.video_ids):
        for layer, top, best in ranked:
            for idx, score in zip(top[i], best[i]):
                lines.append(
                    f"{video_id}\t{layer.name}\t{layer.labels[idx]}\t{score:.6f}"
                )
    with atomic_open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
