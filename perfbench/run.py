#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload decode --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Configures and builds perfbench/ (which pulls in the library through the
top-level CMakeLists.txt) under .bench_build/, runs realm_bench, and passes
its output through. The last line of stdout is the benchmark's JSON result;
the exit code is nonzero when the build fails, an output check fails, or the
result line is missing. Traced runs write their spans under .bench_out/.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def build() -> pathlib.Path:
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "realm_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "realm_bench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["decode", "prefill", "fault_storm", "sweep"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    # One engine worker per core besides the generator; the kernels' own
    # pool stays single-threaded unless the benchmark sizes it.
    env = {k: v for k, v in os.environ.items() if k not in ("REALM_THREADS", "REALM_KERNEL")}
    # Back large allocations (weight panels, accumulators) with transparent
    # huge pages. With 4 KiB pages each process's random physical layout
    # moved decode capacity by about +-15 % from run to run.
    tunables = [t for t in env.get("GLIBC_TUNABLES", "").split(":") if t]
    env["GLIBC_TUNABLES"] = ":".join(tunables + ["glibc.malloc.hugetlb=1"])
    if args.self_test:
        cmd = [str(binary), "--self-test"]
    else:
        cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            OUT.mkdir(exist_ok=True)
            cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    if args.self_test:
        print("\n".join(lines))
        return proc.returncode
    # Everything before the result goes out as is; the result line is
    # re-checked so a truncated run never reads as a result.
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (json.JSONDecodeError, IndexError, TypeError):
        ok = False
    if not ok:
        print(proc.stdout, end="", file=sys.stderr)
        print("run.py: no result line", file=sys.stderr)
        return proc.returncode or 4
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
