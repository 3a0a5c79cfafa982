#!/usr/bin/env python3
"""Run every workload in a fresh process per seed and summarise the results.

    python3 perfbench/report.py                 # one seed, every workload
    python3 perfbench/report.py --seeds 1-10    # ten seeds, for the spread

Every workload of BENCHMARK.json runs for its `run_seconds`. For each
workload and end-to-end metric it prints the median over the runs, the
number of ops timed, the spread (distance between the first and third
quartile, as a share of the median) next to the bound BENCHMARK.json fixes,
and the failed share. `op_ms_p50` and `items_per_s`, which run.py prints
but does not bound, follow with their spreads. Runs are sequential, each
awaited before the next starts. Traced runs are made with `run.py --trace 1`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNBOUNDED = (("op_ms_p50", "ms"), ("items_per_s", "1/s"))  # printed by run.py, not bounded


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    info = json.loads(next(ln for ln in lines if ln.startswith("info "))[5:])
    return result, info["unbounded"]


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs, extra = [], []
        for seed in seeds:
            result, unbounded = run_one(workload, seed, spec["run_seconds"])
            runs.append(result)
            extra.append(unbounded)
            ok &= result["correct"] and result["failed"] == 0
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"== {workload}: {len(runs)} run(s), seeds {args.seeds}, "
              f"{attempted} ops, failed_frac {failed / attempted:.6g}")
        rows = [(name, m["unit"], [r["metrics"][name]["value"] for r in runs], m["bound"])
                for name, m in bounds.items()]
        rows += [(name, unit, [e[name] for e in extra], None) for name, unit in UNBOUNDED]
        for name, unit, vals, bound in rows:
            sp = spread(vals)
            flag = ("" if bound is None or len(vals) < 2 or sp <= bound
                    else "  SPREAD ABOVE BOUND")
            print(f"{workload:5s} {name:12s} median {statistics.median(vals):12.6g} {unit:4s}"
                  f" n={attempted}  spread {sp:7.4f} (bound {bound or 'none'})  runs "
                  + " ".join(f"{v:.5g}" for v in vals) + flag)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
