"""Measure one workload: worker processes do the set-up, timed loop and checks.

An untraced run starts ``WORKERS`` fresh worker processes one after another,
each measuring an equal share of ``--seconds``, and pools what they measured.
A Python process has a speed of its own (memory layout, allocator state),
so a run of several processes moves less from run to run than one long
process.  A traced run uses one worker for all of ``--seconds``.

``run.py`` imports this module once ``netsteglab`` is importable from the
checkout's ``src/``.
"""

from __future__ import annotations

import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from netsteglab import cli

import spans
from workloads import WORKLOADS, Verdict, golden_gate, sha256_hex

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"
WORKERS = 4
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10


def tail(times):
    """Value at the highest percentile with ``TAIL_BEYOND`` samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# worker side


class Run:
    """One workload, one seed, in one worker process."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, worker: int,
                 import_s: float):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.worker = worker
        self.import_s = import_s
        self.work = WORK / f"{workload.name}-{os.getpid()}"
        self.refs = {}
        self.ops_log = []  # one dict per timed op
        self.pair_ratios = []  # traced op time over the untraced op before it
        self.problems = []
        self.gate = None
        self.tracer = None

    def run_op(self, op, main):
        if op.out.exists():
            shutil.rmtree(op.out)
        op.out.mkdir(parents=True)
        gc.collect()
        results, error, sink = [], None, io.StringIO()
        t0 = perf_counter()
        try:
            for argv in op.steps:
                buf = io.StringIO()
                with redirect_stdout(buf), redirect_stderr(sink):
                    rc = main(argv)
                results.append((rc, buf.getvalue()))
                if rc != 0:
                    break
        except Exception as exc:  # a raising op is a failed op, not a crash
            error = f"raised {type(exc).__name__}: {exc}"
        return perf_counter() - t0, results, error

    def verify(self, index, op, results, error):
        if error is not None:
            return Verdict(error)
        error = self.wl.check(op, results)
        if error is not None:
            return Verdict(error)
        digest = self.wl.digest(op, results)
        if index not in self.refs:
            verdict = self.wl.deep_check(op, results)
            self.refs[index] = (digest, verdict)
            return verdict
        ref_digest, ref = self.refs[index]
        if ref.error is not None:
            return Verdict("the first run of this input failed its checks")
        if digest != ref_digest:
            return Verdict("output bytes differ from the first run of this input")
        return ref

    def execute(self) -> None:
        if self.worker == 0:
            self.gate = golden_gate(self.work / "gate")
            if not self.gate["ok"]:
                self.problems.append("golden gate failed")
        t0 = perf_counter()
        self.ops = self.wl.setup(self.seed, self.work / "inputs")
        for op in self.ops[:self.wl.warmup_ops]:
            _, results, error = self.run_op(op, cli.main)
            error = error or self.wl.check(op, results)
            if error is not None:
                self.problems.append(f"warm-up {op.label}: {error}")
        self.setup_s = self.import_s + perf_counter() - t0
        self.measure()

    def measure(self) -> None:
        tracer = None
        if self.trace:
            tracer = spans.Tracer()
            patches = spans.boundary_patches()
            traced_main = tracer.wrap("cli.main", cli.main)
        self.tracer = tracer
        last_untraced = {}
        start = perf_counter()
        cycle = 0
        while True:
            traced = self.trace and cycle % 2 == 1
            for index, op in enumerate(self.ops):
                if traced:
                    tracer.current_op = len(self.ops_log)
                    tracer.install(patches)
                    try:
                        seconds, results, error = self.run_op(op, traced_main)
                    finally:
                        tracer.uninstall()
                    self.pair_ratios.append(seconds / last_untraced[index])
                else:
                    seconds, results, error = self.run_op(op, cli.main)
                    last_untraced[index] = seconds
                verdict = self.verify(index, op, results, error)
                self.ops_log.append({
                    "op": op.label, "index": index, "worker": self.worker,
                    "seconds": seconds, "traced": traced, "error": verdict.error,
                    "frames": 0 if verdict.error else verdict.frames,
                    "useful_bytes": 0 if verdict.error else verdict.useful_bytes,
                })
            cycle += 1
            if perf_counter() - start >= self.seconds and (not self.trace or cycle >= 2):
                break

    def result(self) -> dict:
        out = {
            "worker": self.worker, "setup_s": self.setup_s, "import_s": self.import_s,
            "gate": self.gate, "problems": self.problems, "ops": self.ops_log,
            "digests": {str(i): self.refs[i][0] for i in sorted(self.refs)},
            "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if self.trace:
            traced = sum(1 for o in self.ops_log if o["traced"])
            q1, ratio, q3 = quartiles(self.pair_ratios)
            out["trace_overhead_quartiles"] = [q1, ratio, q3]
            out["spans"] = len(self.tracer)
            out["per_layer"] = {
                k: list(v) for k, v in
                spans.per_layer_metrics(self.tracer, traced, ratio).items()}
        return out


def worker_main(args, import_s: float) -> None:
    """Measure this worker's share; print one JSON line of raw results."""
    share = args.seconds / (1 if args.trace else WORKERS)
    run = Run(WORKLOADS[args.workload], args.seed, share, bool(args.trace), args.worker,
              import_s)
    try:
        run.execute()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if args.trace:
        RESULTS.mkdir(exist_ok=True)
        run.tracer.write(RESULTS / f"{args.workload}-seed{args.seed}-trace1.spans.json")
    print(json.dumps(run.result()))


# ---------------------------------------------------------------------------
# parent side


def start_workers(args) -> list:
    """Run the workers one after another; their results, in order."""
    results = []
    for worker in range(1 if args.trace else WORKERS):
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--worker", str(worker)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"error: worker {worker} exited {proc.returncode}")
        results.append(json.loads(lines[-1]))
    return results


def cross_check(workers: list) -> None:
    """Fail every op whose outputs differ from worker 0's for the same input."""
    reference = workers[0]["digests"]
    for w in workers[1:]:
        for o in w["ops"]:
            if o["error"] is None and w["digests"].get(str(o["index"])) != \
                    reference.get(str(o["index"])):
                o["error"] = "output bytes differ from worker 0's for this input"
                o["frames"] = o["useful_bytes"] = 0


def end_to_end(workers: list):
    """End-to-end metrics pooled over the workers, plus a note on the samples."""
    ops = [o for w in workers for o in w["ops"] if not o["traced"]]
    times = [o["seconds"] for o in ops]
    tail_s, pct = tail(times)
    setups = [w["setup_s"] for w in workers]
    rss = [w["peak_rss_MB"] for w in workers]
    note = {"ops": len(times), "tail_percentile": pct, "workers": len(workers),
            "setup_s_per_worker": setups, "peak_rss_MB_per_worker": rss}
    metrics = {
        "op_s": (statistics.median(times), "s"),
        "op_s_tail": (tail_s, "s"),
        "frames_per_s": (sum(o["frames"] for o in ops) / sum(times), "1/s"),
        "goodput_MBps": (sum(o["useful_bytes"] for o in ops) / sum(times) / 1e6, "MB/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_MB": (statistics.median(rss), "MB"),
    }
    return metrics, note


def per_layer(workers: list):
    (w,) = workers
    traced = sum(1 for o in w["ops"] if o["traced"])
    note = {"traced_ops": traced, "untraced_ops": len(w["ops"]) - traced,
            "spans": w["spans"],
            "trace_overhead_ratio_quartiles": w["trace_overhead_quartiles"]}
    return {k: tuple(v) for k, v in w["per_layer"].items()}, note


def run_one(args) -> None:
    """Measure ``args.workload``; print the report, its last line the JSON result."""
    wl = WORKLOADS[args.workload]
    workers = start_workers(args)
    cross_check(workers)
    metrics, note = per_layer(workers) if args.trace else end_to_end(workers)
    ops_log = [o for w in workers for o in w["ops"]]
    gate = workers[0]["gate"]
    problems = [p for w in workers for p in w["problems"]]
    attempted = len(ops_log)
    failed = sum(1 for o in ops_log if o["error"] is not None)
    correct = failed == 0 and not problems
    digests = workers[0]["digests"]
    digest = sha256_hex(*(digests[i].encode() for i in sorted(digests, key=int)))

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  workers {len(workers)}")
    gate_text = "ok" if gate["ok"] else f"FAILED {gate}"
    print(f"  golden gate (transfer --seed 7 --width 96 --height 64): {gate_text}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:16.6f} {unit}")
    print(f"  {'failed_ratio':40s} {failed / attempted:16.6f} ratio "
          f"({failed} failed of {attempted} attempted)")
    print(f"  samples: {json.dumps(note)}")
    print(f"  outputs sha256: {digest}")
    if args.trace:
        tap_us = metrics["interceptor.process.us_per_data_frame"][0]
        if tap_us:
            print(f"  tap cost per data frame: {tap_us:.1f} us measured vs "
                  f"{spans.TAP_MODEL_US:.0f} us modeled by --tap-us, "
                  f"{tap_us / spans.TAP_MODEL_US:.1f}x the model. Measured in the traced "
                  f"run, so it includes the wrappers around its child calls "
                  f"(with_tcp_payload, parse_bmp_info).")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    for o in ops_log:
        if o["error"] is not None:
            print(f"  FAILED op {o['op']} (worker {o['worker']}): {o['error']}")

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": wl.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": environment(),
        "golden_gate": gate, "problems": problems,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "outputs_sha256": digest,
        "samples": note, "metrics": result_metrics, "ops": ops_log,
    }, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": result_metrics,
    }))
