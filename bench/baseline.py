"""Run the benchmark over several seeds and summarize it, optionally into a baseline file.

    python3 bench/baseline.py --seeds 1-10                  # spreads only
    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

Every workload in BENCHMARK.json runs once per seed with tracing off
(workloads interleaved, so slow drift of the machine hits all of them), then
once with tracing on. For each end-to-end metric it prints the median of the
per-run values and the spread, (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    report_path = os.path.join(ROOT, ".bench_work", "reports",
                               f"{workload}-seed{seed}-trace{trace}.json")
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    print(f"{workload} seed={seed} trace={trace} wall={wall:.1f}s correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}", flush=True)
    return result, report


def spread(values: list) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)

    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    meta, failed, attempted = None, 0, 0
    for seed in seeds:
        for w in workloads:
            result, report = _run(spec, w, seed, 0)
            meta = meta or {k: v for k, v in report["meta"].items() if k != "inputs_sha256"}
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])

    summary = {"seeds": seeds, "run_seconds": spec["run_seconds"], "meta": meta,
               "error_rate": failed / attempted, "workloads": {}}
    worst = []
    print(f"\n{'workload':18s} {'metric':22s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for w in workloads:
        rows = summary["workloads"].setdefault(w, {"end_to_end": {}})["end_to_end"]
        for m in spec["end_to_end"]:
            med, q1, q3, sp = spread(values[w][m["name"]])
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                               "unit": m["unit"], "values": values[w][m["name"]]}
            flag = "" if sp < m["bound"] / 3 else (" > bound/3" if sp <= m["bound"] else " > BOUND")
            if flag:
                worst.append((w, m["name"], sp, m["bound"]))
            print(f"{w:18s} {m['name']:22s} {med:12.6g} {sp:8.4f} {m['bound']:6.2f}{flag}")
    print(f"error_rate {summary['error_rate']:g} ({failed} of {attempted} operations)")

    for w in workloads:
        result, _ = _run(spec, w, seeds[0], 1)
        summary["workloads"][w]["per_layer"] = {
            name: m["value"] for name, m in result["metrics"].items()
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 1 if any(sp > bound for _, _, sp, bound in worst) else 0


if __name__ == "__main__":
    sys.exit(main())
