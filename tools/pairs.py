"""Alternating before/after runs of the benchmark in two checkouts.

Runs N pairs of `perfbench/run.py --trace 0` on one workload: pair i runs
both checkouts with seed SEED+i, the parent first in even pairs and the
change first in odd ones, one process at a time. Then it prints, per
end-to-end metric, each side's median and quartiles, how many pairs the
change won (ties count for neither side), and whether that is a gain: the
change wins at least 9 in 10 pairs and the medians differ, in the better
direction, by more than the distance between the parent's quartiles. That
rule needs at least 10 pairs, so fewer are refused. Last comes a
no-regression verdict against the metric's `bound`, a fraction of the
parent's median: `ok` when the change's median is worse by at most the
bound, `worse` when by more, and `unresolved` when the parent's quartiles lie
further apart than the bound and not every run of the change reads better
than every run of the parent, so that these runs cannot tell. The run length (`run_seconds`), and
each metric's better direction and bound, come from the change's
BENCHMARK.json, so both checkouts run for the same time.

    python tools/pairs.py --parent ../parent --workload train --pairs 10
    python tools/pairs.py --parent A --change B --workload infer --pairs 12

Each run's metrics go to stderr as they finish. Nothing in either checkout is
edited; the benchmark writes its usual `.perfbench_out/` there.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"{checkout}: exit {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def benchmark_spec(checkout: Path) -> tuple[float, dict]:
    """The run length and each end-to-end metric's (better direction, bound)."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return float(spec["run_seconds"]), {m["name"]: (m["better"], float(m["bound"]))
                                        for m in spec["end_to_end"]}


def summarize(name, better, parent, change):
    """One table row: medians, quartiles, change wins, and whether it is a gain."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quantiles(parent, n=4, method="inclusive")
    c1, cm, c3 = quantiles(change, n=4, method="inclusive")
    gain = wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1
    return (f"{name:14s} {better:6s} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>30s} "
            f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>30s} "
            f"{f'{wins}/{len(parent)}':>6s}  {'yes' if gain else 'no'}")


def verdict(better, bound, parent, change):
    """`ok`, `worse` or `unresolved`: the change's median against the parent's,
    with bound a fraction of the parent's median."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quantiles(parent, n=4, method="inclusive")
    cm = quantiles(change, n=4, method="inclusive")[1]
    scale = abs(pm) or 1.0
    # every change run better than every parent run: the worst change run
    # against the best parent run
    worst_c, best_p = (min, max) if sign > 0 else (max, min)
    better_every_run = sign * (worst_c(change) - best_p(parent)) > 0
    if (p3 - p1) / scale > bound and not better_every_run:
        return "unresolved"
    return "worse" if sign * (pm - cm) / scale > bound else "ok"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, default=ROOT, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10, help="at least 10, for the 9-in-10 rule")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args(argv)
    if args.pairs < 10:
        print("error: --pairs must be at least 10, for the 9-in-10 rule", file=sys.stderr)
        return 1
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in sides.items():
        if not (path / "perfbench" / "run.py").is_file():
            print(f"error: --{side} {path} has no perfbench/run.py", file=sys.stderr)
            return 1

    values = {"parent": {}, "change": {}}
    failed = {"parent": [0, 0], "change": [0, 0]}
    try:
        seconds, spec = benchmark_spec(sides["change"])
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                res = run_once(sides[side], args.workload, seed, seconds)
                failed[side][0] += res["failed"]
                failed[side][1] += res["attempted"]
                for name, m in res["metrics"].items():
                    values[side].setdefault(name, []).append(m["value"])
                shown = " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items())
                print(f"pair {i + 1} seed {seed} {side}: {shown}", file=sys.stderr)
        rows = []
        for name, parent in values["parent"].items():
            if name in values["change"]:
                better, bound = spec[name]
                change = values["change"][name]
                rows.append((summarize(name, better, parent, change),
                             verdict(better, bound, parent, change)))
    except (OSError, RuntimeError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    print(f"{args.workload}: {args.pairs} pairs of {seconds:g} s, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}")
    head = (f"{'metric':14s} {'better':6s} {'parent median [q1, q3]':>30s} "
            f"{'change median [q1, q3]':>30s} {'wins':>6s}  gain")
    print(f"{head}  verdict")
    for row, v in rows:
        print(f"{row:{len(head)}s}  {v}")
    for side, (f, n) in failed.items():
        print(f"{side} failed ops: {f}/{n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
