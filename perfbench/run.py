#!/usr/bin/env python3
"""Run one occkit benchmark workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload predict_small --seed 0 --seconds 10 --trace 0

Each workload is a closed loop: one caller in one process runs ops back to
back for ``--seconds`` (and at least the workload's window of ops), checking
every op's outputs. With ``--trace 0`` the last line of standard output is a
JSON object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics from a traced run, and the spans are written to
``perfbench/out/``. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("predict_small", "train_tiny", "ingest_small")
SETUP_REPEATS = 9
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def cap_blas_threads() -> int:
    """Cap BLAS threads at one, and never above the CPUs this process may
    use; must run before NumPy is imported. Returns the cap."""
    cap = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def environment(args, cap) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_cap": cap,
        "blas_thread_vars": list(BLAS_THREAD_VARS),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def tail(latencies):
    """(seconds, percentile): the highest percentile with at least ten ops
    beyond it, but never below the median, which it is with fewer than 20
    ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    median = statistics.median(ordered)
    if n < 11 or ordered[n - 11] < median:
        return median, 50
    return ordered[n - 11], 100 * (n - 10) // n


class Loop:
    """Runs one workload's ops back to back and keeps what they return.

    Op 0 is a warm-up: it is checked and digested like every op, but its
    time is kept out of the latency figures. Untraced runs time the reference
    loop before every op after the warm-up and once after the last, so each
    op can be set against the machine's speed around it. The set-ups after
    the first are spread evenly over the measured seconds, so that
    ``setup_s`` samples the machine at several moments of the run.
    """

    def __init__(self, set_up, tracer, gauge):
        self.set_up = set_up
        self.tracer = tracer
        self.gauge = gauge  # reads the reference loop's seconds; None when traced
        self.setup_times = []
        self.wl = self.timed_setup()
        self.warmup = []  # seconds of op 0, untraced then traced
        self.latencies = []  # untraced ops after the warm-up
        self.reference = []  # reference-loop seconds around those ops
        self.traced_latencies = []
        self.ratios = []  # traced / untraced seconds of the same op
        self.samples = 0
        self.attempted = 0
        self.failed = 0
        self.digest_parts = []

    def timed_setup(self):
        r = len(self.setup_times)
        if self.tracer is not None:
            self.tracer.phase = ("setup", r)
            self.tracer.counting = True
            self.tracer.install()
        try:
            start = time.perf_counter()
            wl = self.set_up(r)
            self.setup_times.append(time.perf_counter() - start)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        return wl

    def execute(self, i, traced):
        from workloads import OpCheck

        if traced:
            self.tracer.phase = ("op" if i else "warmup", i)
            self.tracer.counting = i < self.wl.window
            self.tracer.install()
        start = time.perf_counter()
        try:
            out = self.wl.run(i)
            seconds = time.perf_counter() - start
            result = self.wl.check(i, out)
        except Exception as exc:  # a failing op is counted and the loop goes on
            seconds = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            result = OpCheck(0, [f"raised {type(exc).__name__}: {exc}"], b"")
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            for name, value in result.counts.items():
                self.tracer.count(name, value)
        self.attempted += 1
        if result.failures:
            self.failed += 1
            print(f"op {i} failed: {'; '.join(result.failures)}", file=sys.stderr)
        if i == 0:
            self.warmup.append(seconds)
        elif traced:
            self.traced_latencies.append(seconds)
        else:
            self.latencies.append(seconds)
            self.samples += result.samples
        return seconds, result

    def step(self, i):
        if self.tracer is None:
            if i:
                self.reference.append(self.gauge())
            _, result = self.execute(i, False)
        else:
            # Run the op untraced and traced from the same state, alternating
            # which goes first, so the pair measures the tracing overhead.
            snap = self.wl.snapshot()
            runs = {}
            for traced in (False, True) if i % 2 == 0 else (True, False):
                if runs:
                    self.wl.restore(snap)
                runs[traced] = self.execute(i, traced)
            if i:
                self.ratios.append(runs[True][0] / runs[False][0])
            result = runs[False][1]
            if runs[True][1].digest != result.digest:
                self.failed += 1
                print(f"op {i} failed: traced and untraced outputs differ", file=sys.stderr)
        if i < self.wl.window:
            self.digest_parts.append(result.digest)

    def run(self, seconds):
        start = time.perf_counter()
        deadline = start + seconds
        setups_due = [start + seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
        i = 0
        while i < self.wl.window or time.perf_counter() < deadline:
            if setups_due and time.perf_counter() >= setups_due[0]:
                setups_due.pop(0)
                self.timed_setup()
            self.step(i)
            i += 1
        if self.tracer is None:
            self.reference.append(self.gauge())
        for _ in setups_due:
            self.timed_setup()


def per_layer_metrics(tracer, loop) -> dict:
    import spans

    metrics = {f"{name}_s": (tracer.layer_seconds(name), "s") for name in spans.SPAN_NAMES}
    means = {
        "pointprep.ref_points": "count",
        "pointprep.fps_voxels": "count",
        "pointprep.fill_voxels": "count",
        "fusion.samples": "count",
        "fusion.fallback_voxels": "count",
        "decoder.selected_voxels": "count",
        "decoder.candidate_voxels": "count",
        "decoder.fine_miou": "iou",
        "training.grad_samples": "count",
        "training.scored_samples": "count",
        "training.active_churn": "share",
        "training.mean_loss": "loss",
    }
    metrics.update({name: (tracer.mean(name), unit) for name, unit in means.items()})
    metrics["cameras.visible_share"] = (tracer.share("cameras.valid_pairs", "cameras.pairs"), "share")
    metrics["pointprep.synthetic_share"] = (
        tracer.share("pointprep.synthetic_points", "pointprep.ref_points"), "share")
    metrics["decoder.fine_ops_ratio"] = (tracer.share("decoder.fine_ops", "decoder.full_ops"), "share")
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(loop.ratios) - 1.0), "%")
    return metrics


def relative_latencies(loop) -> list:
    """Each op's seconds over the mean of the reference loops timed just
    before and just after it."""
    ref = loop.reference
    return [s / (0.5 * (a + b)) for s, a, b in zip(loop.latencies, ref, ref[1:])]


def end_to_end_metrics(loop) -> dict:
    relative = relative_latencies(loop)
    return {
        "op_p50_ref": (statistics.median(relative), "ref"),
        "op_tail_ref": (tail(relative)[0], "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "setup_s": (statistics.median(loop.setup_times), "s"),
        "ok_share": ((loop.attempted - loop.failed) / loop.attempted, "share"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "occkit" / "__init__.py").is_file():
        print(f"perfbench: no occkit sources under {src}", file=sys.stderr)
        return 2
    cap = cap_blas_threads()
    sys.path.insert(0, str(src))
    import occkit

    if Path(occkit.__file__).resolve().parent != (src / "occkit").resolve():
        print(f"perfbench: imported occkit from {occkit.__file__}, not {src}", file=sys.stderr)
        return 2
    import reference
    import spans
    import workloads

    env = environment(args, cap)
    print("env " + json.dumps(env, sort_keys=True))
    tracer = spans.Tracer() if args.trace else None
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload]
    try:
        gauge = None if tracer else functools.partial(reference.seconds, workload.reference)
        loop = Loop(lambda r: workload(args.seed, str(workdir / f"setup{r}")), tracer, gauge)
        loop.run(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wl = loop.wl

    print(f"digest {args.workload} {wl.digest(loop.digest_parts)}")
    n = len(loop.latencies)
    tail_s, pct = tail(loop.latencies)
    print(f"ops after the warm-up: {n} untraced, {len(loop.traced_latencies)} traced; "
          f"attempted {loop.attempted}, "
          f"failed {loop.failed}, failed_share {loop.failed / loop.attempted}")
    print(f"untraced ops: samples_per_s {loop.samples / sum(loop.latencies):.6g} 1/s, "
          f"median {statistics.median(loop.latencies):.6g} s, "
          f"p{pct} {tail_s:.6g} s" + (" (the median)" if pct == 50 else "") + f" of {n} ops")
    if loop.reference:
        print(f"reference loop: median {statistics.median(loop.reference):.6g} s "
              f"over {len(loop.reference)} passes")
    print(f"setup_s runs {[round(t, 4) for t in loop.setup_times]}")
    print(f"warm-up op 0 seconds {[round(t, 4) for t in loop.warmup]}")
    if tracer is None:
        metrics = end_to_end_metrics(loop)
    else:
        metrics = per_layer_metrics(tracer, loop)
        print(f"tracing overhead: untraced op_p50_s {statistics.median(loop.latencies):.6f}, "
              f"traced op_p50_s {statistics.median(loop.traced_latencies):.6f}, "
              f"median paired ratio - 1 = {metrics['trace.overhead_pct'][0]:.3f}%")
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({
                "env": env,
                "metrics": {k: v for k, (v, _) in metrics.items()},
                "counts": {k: list(v) for k, v in sorted(tracer.counts.items())},
                **tracer.to_json(),
            }, fh, sort_keys=True)
        print(f"trace written to {path.relative_to(ROOT)}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
