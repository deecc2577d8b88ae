"""hlvc benchmark: drives the real CLI (synth -> train -> evaluate -> predict).

    python3 bench/run.py --workload binn-train --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is the ``src/`` tree next to this directory.
With ``--trace 0`` every command is a child process, one at a time, and the
end-to-end metrics are measured from outside: set-up time from the launch of
``train`` to its first ``step=`` line, training throughput from the gaps
between ``step=`` lines, evaluate/predict throughput from each command's wall
time, peak RSS from ``os.wait4``; set-up time is the median of the run's
trains and each rate the first decile of its samples. With ``--trace 1`` the
same commands run in-process through ``hlvc.cli.main``, once plain and once
with every public function wrapped (see tracer.py), and the per-layer metrics
are reported; an evaluation workload trains its checkpoint once before these
passes, so its passes, and its per-layer figures, cover evaluate and predict
only.

Every command's output is checked (see checks.py); a command that exits
non-zero or fails a check counts as failed. The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import TOP_K, WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# name -> (unit, True when higher is better)
END_TO_END = {
    "setup_s": ("s", False),
    "train_examples_per_s": ("examples/s", True),
    "eval_videos_per_s": ("videos/s", True),
    "predict_videos_per_s": ("videos/s", True),
    "peak_rss_mb": ("MB", False),
    "entities_mean_ap": ("ratio", True),
    "verticals_mean_ap": ("ratio", True),
    "verticals_perr": ("ratio", True),
}

MIN_ROUNDS = 2  # at least two trains per run, so checkpoint determinism is checked
SETUP_ROUNDS = 6  # trains before an "eval" workload's clock starts: its set-up samples
INFER_PER_TRAIN = 2  # evaluate -> predict rounds after each train of a "train" workload
TIME_LIMIT_S = 170.0  # a run must end within 180 s; children are killed past this
STEP_LINE = re.compile(r"^step=(\d+) loss=\S+ lr=\S+$")

_META_SNIPPET = """
import json, os, platform, numpy, scipy, hlvc.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except Exception as exc:  # older numpy has no dict mode
    blas = {"error": repr(exc)}
print(json.dumps({
    "nproc": os.cpu_count(),
    "cpus_usable": len(os.sched_getaffinity(0)),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
            or blas,
    "blas_threads_env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
}))
"""


def first_decile(samples: list) -> float:
    """The value that 90% of the samples reach or beat, for a rate (higher is better).

    A rate is reported this way, not as a median: a shared host can switch
    between a fast and a slow state every few seconds, so a run's median
    depends on how its time happened to split between them, while the first
    decile stays in the slow state, which nearly every run meets.
    """
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[0]


def summarize(samples: list, higher_is_better: bool) -> dict:
    """Median, the worst-side percentile with at least ten samples beyond it, and n."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    tail = [p for p in (50, 75, 90, 95, 99) if len(samples) * (100 - p) / 100 >= 10]
    if tail:
        p = tail[-1]
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        out[f"p{p}"] = cuts[(100 - p if higher_is_better else p) - 1]
    return out


class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list = []

    def record(self, what: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append({"op": what, "problems": problems[:5]})
        return not problems


class Command:
    """One finished CLI command: exit code, timestamped stdout lines, stderr."""

    returncode: int
    lines: list  # (perf_counter at read, text)
    stderr: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def exit_problems(self) -> list:
        if self.returncode == 0:
            return []
        return [f"exit {self.returncode}: {self.stderr.strip()[-300:]}"]


class Child(Command):
    """A command run as a child process, its stdout read line by line as it comes."""

    def __init__(self, argv: list, log_dir: str, timeout: float) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        err_path = os.path.join(log_dir, f"stderr-{time.monotonic_ns()}.txt")
        self.lines = []
        with open(err_path, "wb") as err:
            self.start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "hlvc.cli", *argv],
                stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT,
            )
            watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
            watchdog.start()
            try:
                for raw in iter(proc.stdout.readline, b""):
                    self.lines.append((time.perf_counter(), raw.decode().rstrip("\n")))
                _, status, usage = os.wait4(proc.pid, 0)
                self.end = time.perf_counter()
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        self.returncode = proc.returncode
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            self.stderr = fh.read()
        os.remove(err_path)


class InProcess(Command):
    """A command run through ``hlvc.cli.main`` in this process, its output captured."""

    def __init__(self, argv: list) -> None:
        import hlvc.cli

        out = io.StringIO()
        self.start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                self.returncode = hlvc.cli.main(argv)
            except Exception:  # an uncaught error is a failed operation, not a crashed run
                traceback.print_exc()
                self.returncode = -1
        self.end = time.perf_counter()
        self.stderr = out.getvalue()
        self.lines = [(self.end, text) for text in self.stderr.splitlines()]


class Bench:
    """One run of one workload: its files, its operations and its samples.

    ``synth``, ``train``, ``evaluate`` and ``predict`` build the command line,
    run it with ``run`` (``self.child`` or ``InProcess``), check the output
    and record the operation; each returns the finished command, or None
    when the command failed.
    """

    def __init__(self, workload, seed: int, seconds: float, smoke: bool) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.synth_flags, self.iters = workload.sizes(smoke)
        self.num_val = self.synth_flags["num_val"]
        self.batch = int(workload.train[workload.train.index("--batch-size") + 1])
        self.started = time.perf_counter()
        self.dir = os.path.join(WORK, f"{workload.name}-seed{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.use_data(self.path("data"))
        self.ledger = Ledger()
        self.samples = {name: [] for name in END_TO_END}
        self.ckpt_sha: set = set()
        self.eval_reports: list = []
        self.inputs = None
        self.layers: list = []

    def time_left(self) -> float:
        return TIME_LIMIT_S - (time.perf_counter() - self.started)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def use_data(self, data_dir: str) -> None:
        """Point synth's output and every later command's inputs at ``data_dir``."""
        self.data = data_dir
        self.vocab = os.path.join(data_dir, "vocab.txt")
        self.train_shard = os.path.join(data_dir, "train.shard")
        self.val_shard = os.path.join(data_dir, "val.shard")

    def child(self, argv: list) -> Child:
        return Child(argv, self.dir, timeout=self.time_left())

    def synth(self, run) -> Command | None:
        argv = ["synth", "--out", self.data, "--seed", str(self.seed)]
        for key, value in self.synth_flags.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        c = run(argv)
        if not self.ledger.record("synth", c.exit_problems()):
            return None
        self.layers = checks.read_layers(self.vocab)
        self.record_inputs()
        return c

    def train(self, run, ckpt: str) -> Command | None:
        c = run(["train", "--vocab", self.vocab, "--train", self.train_shard, "--out", ckpt,
                 *self.w.train, "--iters", str(self.iters),
                 "--log-every", str(self.w.log_every)])
        ok = self.ledger.record("train", c.exit_problems() or self.check_train(c.lines, ckpt))
        return c if ok else None

    def evaluate(self, run, ckpt: str, out_dir: str) -> Command | None:
        c = run(["evaluate", "--ckpt", ckpt, "--vocab", self.vocab, "--shard", self.val_shard,
                 "--out", out_dir, "--top-k", str(TOP_K)])
        ok = self.ledger.record("evaluate", c.exit_problems() or self.check_eval(out_dir))
        return c if ok else None

    def predict(self, run, ckpt: str, tsv: str) -> Command | None:
        c = run(["predict", "--ckpt", ckpt, "--vocab", self.vocab, "--shard", self.val_shard,
                 "--out", tsv, "--top-k", str(TOP_K)])
        problems = c.exit_problems() or checks.check_predict(
            tsv, self.layers, self.num_val, TOP_K)
        if os.path.exists(tsv):
            os.remove(tsv)
        return c if self.ledger.record("predict", problems) else None

    def record_inputs(self) -> None:
        """Digest the generated inputs, so runs on identical inputs can be told apart."""
        digests = {
            os.path.basename(p): checks.sha256_file(p)
            for p in (self.vocab, self.train_shard, self.val_shard)
        }
        if self.inputs is None:
            self.inputs = digests
        elif digests != self.inputs:
            self.ledger.record("synth", ["same-seed synth runs wrote different files"])

    def check_train(self, lines: list, ckpt: str) -> list:
        problems = []
        steps = [step for _, step in _step_lines(lines)]
        if not steps or steps[0] != 0:
            problems.append("no step=0 line")
        done = [text for _, text in lines if text.startswith("trained ")]
        if not done or f"for {self.iters} steps" not in done[-1]:
            problems.append(f"missing 'trained ... for {self.iters} steps' line")
        if not os.path.isfile(ckpt):
            return problems + [f"checkpoint {ckpt} not written"]
        self.ckpt_sha.add(checks.sha256_file(ckpt))
        if len(self.ckpt_sha) > 1:
            problems.append("same-seed train runs wrote different checkpoints")
        return problems

    def check_eval(self, out_dir: str) -> list:
        problems, reports = checks.check_eval(out_dir, self.layers, self.num_val)
        if not problems:
            if self.eval_reports and reports != self.eval_reports[0]:
                problems.append("evaluate reports differ between identical checkpoints")
            self.eval_reports.append(reports)
        return problems

    def quality(self) -> dict:
        if not self.eval_reports:
            return {}
        r = self.eval_reports[0]
        return {
            "entities_mean_ap": r["entities"]["mean_ap"],
            "verticals_mean_ap": r["verticals"]["mean_ap"],
            "verticals_perr": r["verticals"]["perr"],
        }

    def result(self, metrics: dict, extra: dict) -> dict:
        failed = len(self.ledger.failures)
        return {
            "correct": failed == 0 and self.ledger.attempted > 0,
            "attempted": self.ledger.attempted,
            "failed": failed,
            "metrics": metrics,
            "failures": self.ledger.failures,
            **extra,
        }


def _step_lines(lines: list) -> list:
    """(time, step) of each ``step=N loss=L lr=R`` line of a train command."""
    return [(t, int(m.group(1))) for t, text in lines if (m := STEP_LINE.match(text))]


def _repeat(b: Bench, step, until: float, minimum: int) -> int:
    """Call step(i) until ``until`` (a perf_counter time) is near; at least ``minimum`` times.

    A call starts only while half the previous call's duration still fits.
    """
    count, last = 0, 0.0
    while count < minimum or time.perf_counter() + last / 2 < until:
        if b.time_left() < 2 * last or b.ledger.failures:
            break
        begin = time.perf_counter()
        step(count)
        last = time.perf_counter() - begin
        count += 1
    return count


# ---------------------------------------------------------------------------
# Untraced run: child processes, end-to-end metrics.


def _train(b: Bench, i: int) -> None:
    c = b.train(b.child, b.path(f"model{i}.ckpt"))
    if c:
        steps = _step_lines(c.lines)
        b.samples["setup_s"].append(steps[0][0] - c.start)
        for (t0, s0), (t1, s1) in zip(steps, steps[1:]):
            b.samples["train_examples_per_s"].append(b.batch * (s1 - s0) / (t1 - t0))
        b.samples["peak_rss_mb"].append(c.maxrss_mb)


def _infer(b: Bench, i: int) -> None:
    ckpt = b.path("model0.ckpt")
    c = b.evaluate(b.child, ckpt, b.path(f"report{i}"))
    if c:
        b.samples["eval_videos_per_s"].append(b.num_val / c.seconds)
        b.samples["peak_rss_mb"].append(c.maxrss_mb)
    c = b.predict(b.child, ckpt, b.path(f"predict{i}.tsv"))
    if c:
        b.samples["predict_videos_per_s"].append(b.num_val / c.seconds)
        b.samples["peak_rss_mb"].append(c.maxrss_mb)


def run_untraced(b: Bench) -> dict:
    if not b.synth(b.child):
        return b.result({}, {})

    if b.w.kind == "eval":  # the checkpoint is prepared before the clock starts
        trains = _repeat(b, lambda i: _train(b, i), time.perf_counter(), SETUP_ROUNDS)
        rounds = _repeat(b, lambda i: _infer(b, i), time.perf_counter() + b.seconds, MIN_ROUNDS)
    else:
        # Training and inference take turns, so that each is sampled across the
        # whole run, not in one stretch of it.
        def cycle(i: int) -> None:
            _train(b, i)
            for j in range(INFER_PER_TRAIN):
                _infer(b, INFER_PER_TRAIN * i + j)

        trains = rounds = _repeat(b, cycle, time.perf_counter() + b.seconds, MIN_ROUNDS)

    metrics = {}
    for name, (unit, _) in END_TO_END.items():
        samples = b.samples.get(name) or []
        if name == "peak_rss_mb":
            value = max(samples) if samples else None
        elif name in ("entities_mean_ap", "verticals_mean_ap", "verticals_perr"):
            value = b.quality().get(name)
        elif name == "setup_s":
            value = statistics.median(samples) if samples else None
        else:
            value = first_decile(samples) if samples else None
        metrics[name] = {"value": value, "unit": unit}
    detail = {
        name: summarize(s, END_TO_END[name][1])
        for name, s in b.samples.items() if s and name != "peak_rss_mb"
    }
    return b.result(metrics, {"trains": trains, "inference_rounds": rounds, "detail": detail,
                              "samples": b.samples})


# ---------------------------------------------------------------------------
# Traced run: in-process, per-layer metrics.


def _traced_pass(b: Bench, tag: str) -> float:
    """One checked pass of the workload's commands in-process; returns its wall time.

    A training workload's pass is synth -> train -> evaluate -> predict. An
    evaluation workload's pass is evaluate -> predict on the checkpoint made
    before the passes, so its figures cover inference only.
    """
    base = b.path(tag)
    os.makedirs(base)
    start = time.perf_counter()
    if b.w.kind == "train":
        b.use_data(os.path.join(base, "data"))
        ckpt = os.path.join(base, "model.ckpt")
        ok = b.synth(InProcess) and b.train(InProcess, ckpt)
    else:
        ckpt, ok = b.path("model0.ckpt"), True
    if ok and b.evaluate(InProcess, ckpt, os.path.join(base, "report")):
        b.predict(InProcess, ckpt, os.path.join(base, "pred.tsv"))
    wall = time.perf_counter() - start
    shutil.rmtree(base, ignore_errors=True)
    return wall


def run_traced(b: Bench) -> dict:
    sys.path.insert(0, SRC)
    import hlvc.cli  # noqa: F401  (imported here so no pass pays for the import)

    if b.w.kind == "eval" and not (b.synth(InProcess)
                                   and b.train(InProcess, b.path("model0.ckpt"))):
        return b.result({}, {})
    overheads, per_pass = [], []

    def pair(i: int) -> None:
        walls = {}
        for tag in ("plain", "traced") if i % 2 == 0 else ("traced", "plain"):
            if tag == "plain":
                walls[tag] = _traced_pass(b, f"plain{i}")
                continue
            t = tracer.Tracer()
            t.install()
            try:
                walls[tag] = _traced_pass(b, f"traced{i}")
            finally:
                t.uninstall()
            per_pass.append(t.metrics())
        overheads.append(walls["traced"] - walls["plain"])

    pairs = _repeat(b, pair, time.perf_counter() + b.seconds, 1)
    metrics = {}
    for name, unit in tracer.metric_units().items():
        if name == "tracing_overhead_s":
            values = overheads
        else:
            values = [p[name] for p in per_pass]
        value = statistics.median(values) if values else None
        if unit == "count" and value is not None:
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
    return b.result(metrics, {"pairs": pairs})


# ---------------------------------------------------------------------------


def machine_meta() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _META_SNIPPET], capture_output=True,
                          text=True, env=env, timeout=60)
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-300:], "platform": platform.platform()}
    meta = json.loads(proc.stdout)
    meta["platform"] = platform.platform()
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hlvc", "cli.py")):
        print(f"error: no hlvc sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    b = Bench(WORKLOADS[args.workload], args.seed, args.seconds, args.smoke)
    try:
        meta = machine_meta()
        result = run_traced(b) if args.trace else run_untraced(b)
        meta["inputs_sha256"] = b.inputs
    finally:
        shutil.rmtree(b.dir, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "run_wall_s": time.perf_counter() - b.started, "meta": meta, **result}
    os.makedirs(os.path.join(WORK, "reports"), exist_ok=True)
    report_path = os.path.join(
        WORK, "reports", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    for name, m in result["metrics"].items():
        extra = result.get("detail", {}).get(name, {})
        tail = " ".join(f"{k}={v:.6g}" for k, v in extra.items() if k != "n")
        n = f" n={extra['n']}" if extra else ""
        print(f"{name:48s} {m['value']!s:>22} {m['unit']:<10} {tail}{n}")
    error_rate = result["failed"] / max(result["attempted"], 1)
    print(f"error_rate {error_rate:g} ({result['failed']} of {result['attempted']} operations)")
    for failure in result["failures"]:
        print(f"FAILED {failure['op']}: {'; '.join(failure['problems'])}")
    print(f"meta {json.dumps(meta, sort_keys=True)}")
    print(f"report {os.path.relpath(report_path, ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
