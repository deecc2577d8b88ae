"""Workloads of the hlvc benchmark: a synthetic regime plus the CLI commands run on it.

Two kinds exist. A "train" workload repeats rounds of one ``train`` and two
evaluate -> predict passes on the checkpoint, so that training and inference
are each sampled across the whole run. An "eval"
workload trains one short checkpoint several times before the clock starts
(each train is a set-up sample), then spends all its time repeating
evaluate -> predict, so its time goes to inference, the metrics and the TSV
writer. Every workload trains at least twice, which checks that same-seed
runs write identical checkpoints. Why each workload exists is written next
to its name in BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses

TOP_K = 20  # --top-k of every evaluate and predict


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "eval"
    synth: dict  # hlvc synth flags, without --seed and --out
    train: tuple  # hlvc train flags, without --vocab/--train/--out
    iters: int
    smoke_synth: dict  # overrides of ``synth`` for the benchmark's own tests
    smoke_iters: int
    log_every: int

    def sizes(self, smoke: bool) -> tuple[dict, int]:
        """Synth flags and iteration count for the full or the smoke size."""
        if smoke:
            return {**self.synth, **self.smoke_synth}, self.smoke_iters
        return dict(self.synth), self.iters


_HARD = {"num_verticals": 25, "num_entities": 200, "max_parents": 3,
         "mean_entities_per_video": 1.8, "noise_std": 1.0}
_WIDE = {"num_verticals": 50, "num_entities": 1000, "max_parents": 3,
         "mean_entities_per_video": 1.8, "noise_std": 1.0, "dim": 128,
         "audio_dim": 0, "num_train": 5000, "num_val": 5000}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="binn-train",
            kind="train",
            synth={**_HARD, "dim": 64, "audio_dim": 0, "num_train": 20000, "num_val": 2000},
            train=("--model", "binn", "--batch-size", "256", "--lr", "0.01",
                   "--norm", "znorm", "--features", "rgb", "--seed", "0"),
            iters=200,
            log_every=10,
            smoke_synth={"num_train": 600, "num_val": 100},
            smoke_iters=20,
        ),
        Workload(
            name="logreg-pca-train",
            kind="train",
            synth={**_HARD, "dim": 128, "audio_dim": 32, "num_train": 20000, "num_val": 2000},
            train=("--model", "logreg", "--batch-size", "256", "--lr", "0.01",
                   "--norm", "pca", "--features", "rgb+audio", "--seed", "0"),
            iters=600,
            log_every=10,
            smoke_synth={"dim": 16, "audio_dim": 4, "num_train": 600, "num_val": 100},
            smoke_iters=50,
        ),
        Workload(
            name="wide-eval-binn",
            kind="eval",
            synth=_WIDE,
            train=("--model", "binn", "--batch-size", "256", "--lr", "0.01",
                   "--norm", "znorm", "--features", "rgb", "--seed", "0"),
            iters=8,
            log_every=1,
            smoke_synth={"num_entities": 120, "dim": 16, "num_train": 300, "num_val": 200},
            smoke_iters=4,
        ),
    )
}
