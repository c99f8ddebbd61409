#!/usr/bin/env python3
"""Runs one workload in sets of N seeded runs and prints each metric's
median and quartiles against its bound in BENCHMARK.json, and how far the
sets' medians lie apart.

    python3 e2ebench/steady.py --workload snb-iterate --runs 10 --sets 2
    python3 e2ebench/steady.py --workload harness-matrix --runs 5 --seed 101

Run from the repository root. Every set runs seeds seed, seed+1, ...,
seed+runs-1, one run after another, so sets differ only in when they ran.
--seconds defaults to BENCHMARK.json's run_seconds.

Per set, the spread of a metric is (Q3 - Q1) / median over its runs, with
quartiles as statistics.quantiles(values, n=4) gives them. A spread is
marked "ok" below a third of the bound, "wide" up to the bound and "OVER"
beyond it. Between sets, "change" is each later set's median relative to
the first set's, and is "OVER" when its size exceeds the bound. The exit
code is 0 only when every run was correct, no spread and no change is OVER,
and the share of failed operations is the same in every run. Nothing else
should load the host meanwhile.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_set(bench, args, index, specs):
    """Runs one set; returns ({metric: [values]}, {failed/attempted}, ok)."""
    values = {m["name"]: [] for m in specs}
    shares = set()
    ok = True
    for i in range(args.runs):
        seed = args.seed + i
        log = subprocess.DEVNULL
        if args.logs:
            log = open(args.logs / f"{args.workload}-set{index}-{seed}.log", "w")
        proc = subprocess.run(
            [sys.executable, str(ROOT / bench["command"][1]), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=log, text=True)
        if args.logs:
            log.close()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"set {index} seed {seed}: exit {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        shares.add(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"set {index} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{n}={result['metrics'][n]['value']:.4g}"
                         for n in list(values)[:8]), flush=True)
    return values, shares, ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--logs", type=Path,
                        help="keep each run's stderr as "
                             "LOGS/<workload>-set<k>-<seed>.log")
    args = parser.parse_args()
    if args.logs:
        args.logs.mkdir(parents=True, exist_ok=True)

    specs = bench["per_layer" if args.trace else "end_to_end"]
    sets = []
    shares = set()
    ok = True
    for index in range(1, args.sets + 1):
        values, set_shares, set_ok = run_set(bench, args, index, specs)
        sets.append(values)
        shares |= set_shares
        ok &= set_ok

    print(f"\n{args.workload}: {args.sets} set(s) of {args.runs} runs, seeds "
          f"{args.seed}..{args.seed + args.runs - 1}, {args.seconds:g} s each")
    medians = []
    for index, values in enumerate(sets, 1):
        print(f"\nset {index}")
        print(f"{'metric':34} {'unit':6} {'median':>12} {'Q1':>12} "
              f"{'Q3':>12} {'spread':>7} {'bound':>6}")
        set_medians = {}
        for spec in specs:
            vals = values[spec["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            set_medians[spec["name"]] = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                verdict = ("ok" if spread < bound / 3 else
                           "wide" if spread <= bound else "OVER")
                ok &= spread <= bound
            print(f"{spec['name']:34} {spec['unit']:6} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {spread:7.3f} "
                  f"{bound if bound else '':>6} {verdict}")
        medians.append(set_medians)

    if len(medians) > 1:
        print(f"\nmedian change from set 1 (later / first - 1)")
        for spec in specs:
            name, bound = spec["name"], spec.get("bound")
            if name not in medians[0] or not medians[0][name]:
                continue
            changes = [m[name] / medians[0][name] - 1 for m in medians[1:]
                       if name in m]
            verdict = ""
            if bound is not None:
                within = all(abs(c) <= bound for c in changes)
                verdict = "ok" if within else "OVER"
                ok &= within
            print(f"{name:34} " + " ".join(f"{c:+8.3f}" for c in changes)
                  + f" {bound if bound else '':>6} {verdict}")

    print(f"\nfailed share per run: {sorted(shares)}")
    ok &= len(shares) <= 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
