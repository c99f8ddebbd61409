#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload rmat-traverse --seed 1 --trace 0

Run from the repository root. --seconds defaults to BENCHMARK.json's
run_seconds, the run length the bounds were measured at. Steps:
  1. configure and build e2ebench/ (and the repository libraries it links)
     into .bench_build/ (or $CARGO_TARGET_DIR when set);
  2. generate the workload's inputs from the seed, in a separate process so
     generation does not count towards the benchmark's peak RSS;
  3. run the workload, with TMPDIR pointed inside .bench_out/ so platform
     spill and store files stay in the checkout, then delete the run's
     directory.

The last line on stdout is the benchmark's JSON result. Build output goes to
stderr. Exit code: 0 when every output checked correct, 3 when a check
failed, anything else when the build or run broke (then nothing is printed
on stdout).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(build_dir), "--target",
                        "e2ebench", "--parallel", "4"],
                       check=True, stdout=sys.stderr)
    return build_dir / "e2ebench"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1

    out_dir = ROOT / ".bench_out"
    run_dir = out_dir / f"run-{os.getpid()}"
    data, scratch, tmp = run_dir / "data", run_dir / "scratch", run_dir / "tmp"
    for d in (data, scratch, tmp):
        d.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--data", str(data)]
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        gen = subprocess.run([str(binary), "gen"] + common, env=env,
                             timeout=RUN_TIMEOUT_S)
        if gen.returncode != 0:
            return gen.returncode or 1
        cmd = [str(binary), "run"] + common + [
            "--scratch", str(scratch), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans",
                    str(out_dir / f"spans-{args.workload}-{args.seed}.json")]
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if run.returncode not in (0, 3):
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
