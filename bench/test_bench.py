"""Tests of the benchmark itself: ``python3 -m pytest bench -q``.

Every workload runs at its smoke size, traced and untraced, through the same
commands and checks as the full benchmark; the tracer and the output checks
are also tested directly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# Functions each workload must reach; read_shard is only ever called through
# the binding hlvc.cli made with "from .data import read_shard". An evaluation
# workload's traced passes run evaluate and predict only.
EXPECTED_CALLS = {
    "binn-train": ["binn.backward", "binn.forward", "optim.adam_step", "features.fit_znorm"],
    "logreg-pca-train": ["baseline.loss_grad", "baseline.predict", "features.jacobi_eigh",
                         "features.fit_pca_whitening", "hierarchy.induce_vertical_scores"],
    "wide-eval-binn": ["binn.forward", "metrics.perr", "cli.predict"],
}
TRAIN_CALLS = ["data.synth_generate", "data.write_shard", "data.save_checkpoint", "cli.train"]
COMMON_CALLS = ["data.read_shard", "data.load_checkpoint", "hierarchy.load_vocabulary",
                "features.apply_normalizer", "metrics.evaluate", "metrics.hit_at_1",
                "metrics.global_average_precision", "cli.evaluate"]


def _run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    return result


def test_spec_lists_every_workload_and_metric():
    import run

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (unit, _) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.metric_units()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_untraced(workload):
    result = _result(_run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                "--trace", "0", "--smoke"))
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and got["value"] > 0, (m["name"], got)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced(workload):
    result = _result(_run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                "--trace", "1", "--smoke"))
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    called = EXPECTED_CALLS[workload] + COMMON_CALLS
    if WORKLOADS[workload].kind == "train":
        called += TRAIN_CALLS
    else:
        for label in TRAIN_CALLS + ["binn.backward", "optim.adam_step"]:
            assert metrics[f"{label}.calls"]["value"] == 0, label
    for label in called:
        assert metrics[f"{label}.calls"]["value"] > 0, label
        assert metrics[f"{label}.self_s"]["value"] > 0, label


def test_no_sources_is_an_error(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_bench("--workload", "binn-train", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_nests_and_restores():
    import numpy as np

    import hlvc.cli
    from hlvc import binn, data, features, metrics

    original_read_shard = hlvc.cli.read_shard
    t = tracer.Tracer()
    t.install()
    try:
        assert hlvc.cli.read_shard is not original_read_shard
        assert hlvc.cli.read_shard is data.read_shard
        rng = np.random.default_rng(0)
        params = binn.init_params((3, 5), 4, seed=0)
        x = rng.normal(size=(8, 4))
        binn.backward(params, x, [np.zeros((8, 3)), np.ones((8, 5))])
        features.fit_pca_whitening(rng.normal(size=(50, 4)))
        metrics.evaluate(metrics.PredictionSet(rng.random((6, 5)), [[0], [1], [2], [3], [4], [0, 1]]))
    finally:
        t.uninstall()
    assert hlvc.cli.read_shard is original_read_shard
    assert t.calls["binn.forward"] == 1 and t.calls["binn.backward"] == 1
    assert t.self_s["binn.backward"] < t.total_s["binn.backward"]
    assert abs(t.total_s["binn.backward"] - t.self_s["binn.backward"]
               - t.total_s["binn.forward"]) < 1e-9
    assert t.calls["features.jacobi_eigh"] == 1
    assert t.self_s["features.fit_pca_whitening"] < t.total_s["features.fit_pca_whitening"]
    nested = sum(t.total_s[f"metrics.{m}"] for m in
                 ("mean_average_precision", "global_average_precision", "perr", "hit_at_1"))
    assert abs(t.total_s["metrics.evaluate"] - t.self_s["metrics.evaluate"] - nested) < 1e-9
    assert t.metrics()["binn.backward.computed_gflop_per_call"] > 0


LAYERS = [("coarse", frozenset({"a", "b"})), ("fine", frozenset({"x", "y", "z"}))]


def _tsv(tmp_path, rows) -> str:
    path = tmp_path / "pred.tsv"
    path.write_text("".join("\t".join(map(str, r)) + "\n" for r in rows))
    return str(path)


def test_predict_check_accepts_good_and_rejects_bad(tmp_path):
    good = [("v0", "coarse", "a", 0.9), ("v0", "coarse", "b", 0.1),
            ("v0", "fine", "x", 0.5), ("v0", "fine", "z", 0.5)]
    assert checks.check_predict(_tsv(tmp_path, good), LAYERS, 1, top_k=2) == []
    ascending = good[:2] + [("v0", "fine", "x", 0.2), ("v0", "fine", "z", 0.3)]
    assert checks.check_predict(_tsv(tmp_path, ascending), LAYERS, 1, top_k=2)
    assert checks.check_predict(_tsv(tmp_path, good[:3]), LAYERS, 1, top_k=2)
    out_of_range = good[:3] + [("v0", "fine", "z", 1.5)]
    assert checks.check_predict(_tsv(tmp_path, out_of_range), LAYERS, 1, top_k=2)
    unknown = good[:3] + [("v0", "fine", "q", 0.1)]
    assert checks.check_predict(_tsv(tmp_path, unknown), LAYERS, 1, top_k=2)


def test_eval_check_rejects_bad_reports(tmp_path):
    report = {"videos": 4, "mean_ap": 0.5, "gap": 0.5, "perr": 0.5, "hit_at_1": 0.5}
    for name, _ in LAYERS:
        (tmp_path / f"eval_{name}.json").write_text(json.dumps(report))
    problems, reports = checks.check_eval(str(tmp_path), LAYERS, 4)
    assert problems == [] and set(reports) == {"coarse", "fine"}
    assert checks.check_eval(str(tmp_path), LAYERS, 5)[0]
    (tmp_path / "eval_fine.json").write_text(json.dumps({**report, "gap": 1.2}))
    assert checks.check_eval(str(tmp_path), LAYERS, 4)[0]


def test_first_decile():
    import run

    assert run.first_decile([5.0]) == 5.0
    assert run.first_decile([float(v) for v in range(11, 0, -1)]) == 2.0
