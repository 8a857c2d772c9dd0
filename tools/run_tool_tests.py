#!/usr/bin/env python3
"""Self-tests for the repo's Python CI gates.

A gate that never trips is indistinguishable from a gate that is broken, so
every checker gets both directions pinned against committed fixtures:

  * bench/compare_baseline.py over tests/tooldata/bench_*.json — passes a
    clean run, trips on a raw_gops regression, a detect_ms regression, a
    missing shape, and a multi-threaded record; the serve-async fault-load
    dispatch passes a clean record and trips on a patched-path p99
    regression and on a patch rate under the floor; the clean records carry
    provenance keys (git_sha, trace, ...) the gate does not know, pinning
    the tolerate-unknown-keys contract; the --trace-overhead mode passes a
    within-budget traced/untraced pair, trips when traced req/s falls under
    the ratio floor, and trips on a mis-wired pair (both records untraced);
  * tools/check_links.py over tests/tooldata/links_*.md — passes valid
    links/anchors (including duplicate-heading suffixes), trips on a missing
    file and on a dead anchor;
  * tools/ab.py --from-records over tests/tooldata/ab_*.jsonl — the claim
    rule holds on 10/10 wins with a gain above the parent's IQR, and fails
    on 8/10 wins and on a parent whose IQR exceeds the gain (which also
    reads "unresolved" against the metric's bound);
  * tools/realm_lint.py over tests/lintdata/ — trips each rule on its bad
    fixture (with the expected rule tag in the output), stays quiet on the
    good-patterns fixture, and stays quiet on the real tree.

Registered in ctest as `tools.selftest` and run in the fast CI lint job.
Exit 0 when every expectation holds, 1 otherwise.

usage: run_tool_tests.py [--root DIR]
"""

import argparse
import pathlib
import subprocess
import sys

FAILURES = []
TOTAL = 0


def run(argv):
    proc = subprocess.run([sys.executable] + [str(a) for a in argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def expect(name, argv, want_zero, want_in_output=None):
    global TOTAL
    TOTAL += 1
    code, output = run(argv)
    ok = (code == 0) == want_zero
    if ok and want_in_output is not None and want_in_output not in output:
        ok = False
        why = f"output lacks {want_in_output!r}"
    else:
        why = f"exit {code}, wanted {'0' if want_zero else 'nonzero'}"
    status = "PASS" if ok else "FAIL"
    print(f"[ {status} ] {name}")
    if not ok:
        FAILURES.append(name)
        indented = "\n".join("    " + l for l in output.strip().splitlines())
        print(f"    {why}\n{indented}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", default=None, help="repo root (default: parent of this script)")
    args = ap.parse_args()
    root = pathlib.Path(args.root) if args.root else pathlib.Path(__file__).resolve().parents[1]

    compare = root / "bench" / "compare_baseline.py"
    links = root / "tools" / "check_links.py"
    lint = root / "tools" / "realm_lint.py"
    tooldata = root / "tests" / "tooldata"
    lintdata = root / "tests" / "lintdata"
    base = tooldata / "bench_baseline.json"

    expect("compare_baseline passes a clean run",
           [compare, tooldata / "bench_current_ok.json", base], want_zero=True,
           want_in_output="perf gate passed")
    expect("compare_baseline trips on raw_gops regression",
           [compare, tooldata / "bench_current_regress_gops.json", base], want_zero=False,
           want_in_output="raw_gops")
    expect("compare_baseline trips on detect_ms regression",
           [compare, tooldata / "bench_current_regress_detect.json", base], want_zero=False,
           want_in_output="detect_ms")
    expect("compare_baseline trips on missing shape",
           [compare, tooldata / "bench_current_missing_shape.json", base], want_zero=False)
    expect("compare_baseline rejects multi-threaded records",
           [compare, tooldata / "bench_current_multithread.json", base], want_zero=False,
           want_in_output="single-thread")
    expect("compare_baseline passes a clean serve fault-load run",
           [compare, tooldata / "bench_serve_fault_ok.json", base], want_zero=True,
           want_in_output="serve fault-load gate passed")
    expect("compare_baseline trips on fault-load p99 regression",
           [compare, tooldata / "bench_serve_fault_slow_p99.json", base], want_zero=False,
           want_in_output="fault_patched_p99_ms")
    expect("compare_baseline trips on fault-load patch-rate floor",
           [compare, tooldata / "bench_serve_fault_low_patch.json", base], want_zero=False,
           want_in_output="fault_patch_rate")
    expect("compare_baseline passes a within-budget traced run",
           [compare, "--trace-overhead", tooldata / "bench_trace_on_ok.json",
            tooldata / "bench_trace_off.json"], want_zero=True,
           want_in_output="tracing-overhead gate passed")
    expect("compare_baseline trips on tracing overhead over budget",
           [compare, "--trace-overhead", tooldata / "bench_trace_on_slow.json",
            tooldata / "bench_trace_off.json"], want_zero=False,
           want_in_output="tracing overhead over budget")
    expect("compare_baseline trips on a mis-wired trace-overhead pair",
           [compare, "--trace-overhead", tooldata / "bench_trace_off.json",
            tooldata / "bench_trace_off.json"], want_zero=False,
           want_in_output="mis-wired")

    expect("check_links passes valid links and anchors",
           [links, tooldata / "links_ok.md"], want_zero=True)
    expect("check_links trips on missing file",
           [links, tooldata / "links_broken_file.md"], want_zero=False,
           want_in_output="broken link")
    expect("check_links trips on dead anchor",
           [links, tooldata / "links_broken_anchor.md"], want_zero=False,
           want_in_output="broken anchor")

    ab = root / "tools" / "ab.py"
    expect("ab claim rule holds on 10/10 wins above the parent's IQR",
           [ab, "--from-records", tooldata / "ab_claim.jsonl", "--claim", "capacity_rps"],
           want_zero=True, want_in_output="claim capacity_rps: holds")
    expect("ab claim rule fails on 8/10 wins",
           [ab, "--from-records", tooldata / "ab_8_of_10_wins.jsonl", "--claim", "capacity_rps"],
           want_zero=False, want_in_output="claim capacity_rps: does not hold")
    expect("ab claim rule fails when the parent's spread exceeds the gain",
           [ab, "--from-records", tooldata / "ab_parent_spread.jsonl", "--claim", "capacity_rps"],
           want_zero=False, want_in_output="unresolved")

    lint_cases = [
        ("src/sa/bad_unforked_rng.cpp", "rng-fork"),
        ("src/serve/bad_worker_rng.cpp", "rng-fork"),
        ("src/fault/bad_component_stream.cpp", "rng-fork"),
        ("src/detect/bad_raw_deviation.cpp", "sat-math"),
        ("src/tensor/bad_missing_pragma.cpp", "avx512-pragma"),
        ("src/serve/bad_mt19937.cpp", "rng-source"),
        ("src/serve/bad_raw_clock.cpp", "clock-source"),
        ("src/util/bad_header.h", "header-tu"),
        ("src/detect/bad_patch_no_rescreen.cpp", "rescreen"),
    ]
    for fixture, rule in lint_cases:
        expect(f"realm_lint trips {rule} on {fixture}",
               [lint, "--root", lintdata, fixture], want_zero=False,
               want_in_output=f"[{rule}]")
    expect("realm_lint passes the good-patterns fixture",
           [lint, "--root", lintdata, "--no-headers", "src/sa/good_patterns.cpp"],
           want_zero=True)
    expect("realm_lint passes the patch-then-rescreen fixture",
           [lint, "--root", lintdata, "--no-headers", "src/detect/good_patch_rescreen.cpp"],
           want_zero=True)
    expect("realm_lint passes the real tree",
           [lint, "--root", root], want_zero=True)

    print(f"tool selftests: {TOTAL - len(FAILURES)}/{TOTAL} passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
