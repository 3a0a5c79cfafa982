#!/usr/bin/env python3
"""Benchmark of the microdet detector: `train`, `infer` and `eval` workloads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload train --seed 1 --seconds 35 --trace 0

With `--trace 0` the run sets up the workload several times, each in a
process that has not yet imported the package, then drives it in a closed
loop (one client, next op after the previous one returns) for `--seconds`
seconds and prints the end-to-end metrics. With `--trace 1` it replays a
fixed number of ops four times, alternately untraced and with every layer
entry point wrapped (see tracer.py), checks that the traced outputs are
bit-identical to the untraced ones and pass the output checks, and prints
the per-layer metrics. Either way the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.

Inputs are generated from `--seed` under `.perfbench_work/` and removed at
exit; traced spans and every result, with the environment, are written to
`.perfbench_out/`. See perfbench/README.md for why each workload exists and
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train", "infer", "eval")
SETUP_REPEATS = 7  # cold set-ups: this process's own, the rest in fresh processes
# traced replays: ops per pass are sized from the run length, within these
TRACE_OPS = {"train": (4, 24), "infer": (40, 200), "eval": (4, 24)}
MIN_COVERAGE = 0.9


def pin_blas_threads():
    """Cap the BLAS and OpenMP pools at the usable core count; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            cur = int(os.environ.get(var, ""))
        except ValueError:
            cur = 0
        os.environ[var] = str(cur if 1 <= cur <= nproc else nproc)
    return nproc


def environment(args, nproc):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def percentile(sorted_vals, q):
    """The nearest-rank q-quantile of sorted samples."""
    n = len(sorted_vals)
    return sorted_vals[min(n - 1, max(0, math.ceil(q * n) - 1))]


def tail_quantile(n):
    """The highest quantile up to 0.9 that leaves at least ten of n samples above it."""
    return max(0.5, min(0.9, 1.0 - 10.0 / n)) if n else 0.5


def cold_setup(workload, seed, work_dir):
    """Import the package and set the workload up: (workload, package, seconds).

    Called once per process, before anything imports `microdet`, so that
    import-time work and first-call costs count as set-up.
    """
    t0 = time.perf_counter()
    import microdet
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, work_dir)
    wl.setup()
    return wl, microdet, time.perf_counter() - t0


def fresh_setup_seconds(args):
    """The cold set-up time of this workload in a new process, awaited."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_untraced(wl, seconds, setup_times):
    gc.collect()
    samples, failed = [], 0
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        t0 = time.perf_counter()
        out = wl.op(i)
        samples.append(time.perf_counter() - t0)
        ok = wl.check(i, out)
        failed += not ok
        i += 1
        if time.perf_counter() >= deadline:
            break
    loop_s = time.perf_counter() - start
    run_ok, info = wl.finish()
    if not run_ok and ok:  # a run-level check fails on the last op
        failed += 1
    s = sorted(samples)
    q = tail_quantile(len(s))
    info.update(samples=len(s), tail_percentile=round(100 * q, 1),
                setup_s_each=[round(t, 4) for t in setup_times])
    # Bounded. The host runs in a fast and a slow mode for seconds at a
    # time, and the share of fast time differs from run to run; the upper
    # quantiles lie in the slow mode in nearly every run, so they hold still.
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "op_ms_p75": (1000 * percentile(s, min(0.75, q)), "ms"),
        "op_ms_p90": (1000 * percentile(s, q), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # Printed, not bounded: both move with the share of fast time.
    unbounded = {
        "op_ms_p50": (1000 * median(s), "ms"),
        # closed-loop throughput: checks and collector pauses between ops count
        "items_per_s": (wl.items_per_op * len(s) / loop_s, "1/s"),
    }
    return len(s), failed, metrics, unbounded, info


def _replay(wl, n, tracer=None, first_op=0):
    """Ops 0..n-1 from the reset state: (times, fingerprints, failed, final state).

    With a tracer, it is installed after the reset, so only the ops are traced.
    """
    wl.reset()
    gc.collect()
    if tracer:
        tracer.install()
    times, fps, failed = [], [], 0
    try:
        for i in range(n):
            root = tracer.begin_op(first_op + i) if tracer else None
            t0 = time.perf_counter()
            out = wl.op(i)
            times.append(time.perf_counter() - t0)
            if tracer:
                tracer.end_op(root)
            failed += not wl.check(i, out)
            fps.append(wl.fingerprint(out))
    finally:
        if tracer:
            tracer.remove()
    return times, fps, failed, wl.final_state()


def run_traced(wl, seconds, package, out_dir):
    """Untraced and traced passes alternate (A B A B) over the same ops.

    The traced outputs must equal the untraced ones bit for bit, the work
    counts of the two traced passes must be equal, and the spans must cover
    most of each op's wall time.
    """
    from layers import layer_metrics, unread_backward
    from tracer import Tracer

    tracer = Tracer(package)
    # set-up file reads, traced once: the dataio numbers outside `eval`
    tracer.install()
    root = tracer.begin_op(0)
    wl.load()
    tracer.end_op(root)
    tracer.remove()

    wl.reset()
    t0 = time.perf_counter()
    wl.op(0)
    est = time.perf_counter() - t0
    lo, hi = TRACE_OPS[wl.name]
    n = max(lo, min(hi, int(seconds / 5 / max(est, 1e-6))))

    passes = []
    pass_ops = []
    for k in range(4):
        traced = k % 2 == 1
        first = 1 + len(pass_ops) * n
        passes.append(_replay(wl, n, tracer if traced else None, first_op=first))
        if traced:
            pass_ops.append(list(range(first, first + n)))
    base_t, base_fp, _, base_state = passes[0]
    failed = 0
    problems = []
    for k, (_, fps, f, state) in enumerate(passes):
        failed += f + sum(a != b for a, b in zip(fps, base_fp))
        if fps != base_fp or state != base_state:
            problems.append(f"pass {k + 1} outputs differ from pass 1 (traced: {k % 2 == 1})")
    if failed:
        problems.append(f"{failed} op output checks failed")
    run_ok, _ = wl.finish()  # on the last pass, which was traced
    if not run_ok:
        failed += 1
        problems.append("the run-level output check failed")
    counts = [tracer.per_op(ops)[3] for ops in pass_ops]
    if counts[0] != counts[1]:
        problems.append("work counts differ between the two traced passes")
    if tracer.missing:
        problems.append("entry points not found, their metrics would read 0: "
                        + ", ".join(sorted(set(tracer.missing))))
    unread = unread_backward(tracer, pass_ops[0] + pass_ops[1])
    if unread:
        problems.append("backward time recorded under spans no metric reads: "
                        + ", ".join(unread))

    untraced_t = passes[0][0] + passes[2][0]
    traced_t = passes[1][0] + passes[3][0]
    metrics, coverage = layer_metrics(tracer, wl, pass_ops[0] + pass_ops[1], setup_op=0)
    metrics["trace.overhead_frac"] = (median(traced_t) / median(untraced_t) - 1.0, "frac")
    if coverage < MIN_COVERAGE:
        problems.append(f"spans cover {coverage:.3f} of op wall time, below {MIN_COVERAGE}")
    tracer.dump(out_dir / f"trace-{wl.name}-seed{wl.seed}.json",
                {"workload": wl.name, "seed": wl.seed, "ops_per_pass": n})
    info = {"ops_per_pass": n, "samples": 2 * n, "problems": problems,
            "missing_entry_points": sorted(set(tracer.missing))}
    return 4 * n, failed, metrics, info, not problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one cold set-up, print it and exit
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "microdet" / "__init__.py").is_file():
        print(f"error: the microdet sources are missing: no {SRC / 'microdet'}",
              file=sys.stderr)
        return 2

    nproc = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  loaded before the set-up clock starts

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        wl, microdet, setup_s = cold_setup(args.workload, args.seed, work_dir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = environment(args, nproc)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        if args.trace:
            attempted, failed, metrics, info, correct = run_traced(
                wl, args.seconds, microdet, out_dir)
            unbounded = {}
        else:
            setup_times = [setup_s]
            setup_times += [fresh_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
            attempted, failed, metrics, unbounded, info = run_untraced(
                wl, args.seconds, setup_times)
            correct = failed == 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    samples = info.get("samples", attempted)
    for name, (value, unit) in {**metrics, **unbounded}.items():
        print(f"{args.workload:5s} {name:34s} {value:14.6g} {unit:16s} n={samples}")
    print(f"{args.workload:5s} {'failed_frac':34s} {failed / attempted:14.6g} "
          f"{'frac':16s} n={attempted}")
    if unbounded:
        info["unbounded"] = {k: v for k, (v, _) in unbounded.items()}
    print("info " + json.dumps(info, sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({**result, "info": info, "env": env}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
