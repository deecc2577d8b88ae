"""Output checks for the hlvc CLI, using only the standard library.

Each check returns a list of problems; an empty list means the output is
correct. The benchmark counts a command with any problem as failed.
"""

from __future__ import annotations

import hashlib
import json
import os

EVAL_METRICS = ("mean_ap", "gap", "perr", "hit_at_1")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_layers(vocab_path: str) -> list[tuple[str, frozenset]]:
    """(layer name, label set) per concept layer of a vocabulary file, coarse first."""
    layers: list[tuple[str, list]] = []
    with open(vocab_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("[layer ") and line.endswith("]"):
                layers.append((line[7:-1].strip(), []))
            elif line == "[edges]":
                break
            elif line and layers:
                layers[-1][1].append(line)
    return [(name, frozenset(labels)) for name, labels in layers]


def check_eval(out_dir: str, layers, num_videos: int) -> tuple[list, dict]:
    """Problems with evaluate's reports, and the parsed reports by layer."""
    problems, reports = [], {}
    for name, _ in layers:
        path = os.path.join(out_dir, f"eval_{name}.json")
        try:
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            problems.append(f"{path}: {exc}")
            continue
        reports[name] = report
        if report.get("videos") != num_videos:
            problems.append(f"{path}: videos={report.get('videos')}, expected {num_videos}")
        for key in EVAL_METRICS:
            value = report.get(key)
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                problems.append(f"{path}: {key}={value!r} is not in [0, 1]")
    return problems, reports


def check_predict(tsv_path: str, layers, num_videos: int, top_k: int) -> list:
    """Row count, label names, probability range and per-group descending order."""
    problems = []
    label_sets = dict(layers)
    per_video = sum(min(top_k, len(labels)) for _, labels in layers)
    expected_rows = num_videos * per_video
    rows = 0
    group, prev = None, None
    group_sizes: dict = {}
    with open(tsv_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            rows += 1
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 4:
                problems.append(f"{tsv_path}:{lineno}: expected 4 fields")
                break
            video, layer, label, prob_text = parts
            if label not in label_sets.get(layer, ()):
                problems.append(f"{tsv_path}:{lineno}: unknown label {layer}/{label}")
                break
            prob = float(prob_text)
            if not 0.0 <= prob <= 1.0:
                problems.append(f"{tsv_path}:{lineno}: probability {prob} not in [0, 1]")
                break
            key = (video, layer)
            if key == group and prob > prev:
                problems.append(f"{tsv_path}:{lineno}: probabilities not descending")
                break
            group, prev = key, prob
            group_sizes[key] = group_sizes.get(key, 0) + 1
    if problems:
        return problems
    if rows != expected_rows:
        problems.append(f"{tsv_path}: {rows} rows, expected {expected_rows}")
    elif len(group_sizes) != num_videos * len(layers):
        problems.append(f"{tsv_path}: {len(group_sizes)} (video, layer) groups, "
                        f"expected {num_videos * len(layers)}")
    else:
        for (video, layer), size in group_sizes.items():
            if size != min(top_k, len(label_sets[layer])):
                problems.append(f"{tsv_path}: {video}/{layer} has {size} rows")
                break
    return problems
