#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark between two git revisions.

    python3 tools/ab.py PARENT CHANGE --workload decode --seed 3 --seconds 20 \\
        --pairs 10 --workdir /tmp/ab --records decode.jsonl --claim capacity_rps
    python3 tools/ab.py --from-records decode.jsonl --claim capacity_rps

The first form exports both revisions under --workdir (one directory per
commit, reused by later calls so each keeps its build), warms each side up
with a 1 s run that also builds it, then runs --pairs pairs of
`perfbench/run.py --workload W --seed S --seconds T`, alternating which side
runs first. Every result line is written to --records (a new file) as it
arrives, so an interrupted run keeps what it measured. The second form
re-reads such a file without running anything.

Revisions are exported with `git archive` rather than checked out with
`git worktree`: the repository's .git is never written, and a killed run
leaves no stale worktree entry behind.

For every metric that BENCHMARK.json names, the report gives each side's
quartiles (q1 / median / q3), the pairs the change won (ties count for
neither side) and a verdict:
  claim       at least 9/10 of >= 10 pairs won, and the medians differ, in
              the better direction, by more than the parent's IQR (q3 - q1);
  worse       an end-to-end metric whose change median is worse than the
              parent's by more than its BENCHMARK.json bound;
  unresolved  an end-to-end metric whose parent IQR/median exceeds its bound,
              unless every change run beats every parent run;
  ok / -      none of these (end-to-end / per-layer).
Exit status: 1 when --claim names a metric whose verdict is not "claim" or
any end-to-end metric is "worse", 2 on a failed run or bad input, else 0.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def quartiles(xs):
    """(q1, median, q3) of xs, inclusive method (exact at the sample points)."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def compare(records, benchmark):
    """Summarize recorded result lines into one row per metric.

    records: dicts {"side": "parent"|"change", "pair": i, "result": <the
    perfbench result line>}; only pairs with both sides count. benchmark:
    the parsed BENCHMARK.json, which gives each metric's direction and, for
    end-to-end metrics, its bound.
    """
    sides = {"parent": {}, "change": {}}
    for rec in records:
        sides[rec["side"]][rec["pair"]] = rec["result"]["metrics"]
    pairs = sorted(set(sides["parent"]) & set(sides["change"]))
    specs = [(m, True) for m in benchmark["end_to_end"]]
    specs += [(m, False) for m in benchmark["per_layer"]]
    rows = []
    for spec, end_to_end in specs:
        name = spec["name"]
        if not pairs or any(name not in sides[s][p] for s in sides for p in pairs):
            continue
        par = [sides["parent"][p][name]["value"] for p in pairs]
        chg = [sides["change"][p][name]["value"] for p in pairs]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(1 for a, b in zip(par, chg) if sign * (b - a) > 0)
        pq, cq = quartiles(par), quartiles(chg)
        gain = sign * (cq[1] - pq[1])
        iqr = pq[2] - pq[0]
        if len(pairs) >= 10 and wins * 10 >= 9 * len(pairs) and gain > iqr:
            verdict = "claim"
        elif not end_to_end:
            verdict = "-"
        elif -gain > spec["bound"] * abs(pq[1]):
            verdict = "worse"
        elif iqr > spec["bound"] * abs(pq[1]) and not (
                min(chg) > max(par) if sign > 0 else max(chg) < min(par)):
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append({"metric": name, "unit": spec["unit"], "parent": pq, "change": cq,
                     "wins": wins, "pairs": len(pairs), "verdict": verdict})
    return rows


def fmt(q):
    return " / ".join(f"{v:.4g}" for v in q)


def print_rows(rows):
    print(f"{'metric':32s} {'unit':6s} {'parent q1 / med / q3':>30s} "
          f"{'change q1 / med / q3':>30s} {'wins':>6s}  verdict")
    for r in rows:
        print(f"{r['metric']:32s} {r['unit']:6s} {fmt(r['parent']):>30s} "
              f"{fmt(r['change']):>30s} {r['wins']:>3d}/{r['pairs']:<2d}  {r['verdict']}")


def export(rev, workdir):
    """Export `rev` under workdir/<sha> (once) and return that directory."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    dest = workdir / sha
    if not (dest / "perfbench" / "run.py").exists():
        dest.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {sha} failed")
    return dest


def run_once(tree, args, seconds):
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        raise RuntimeError(f"{tree.name}: output check failed")
    return result


def measure(args):
    workdir = pathlib.Path(args.workdir).resolve()
    trees = {"parent": export(args.parent, workdir), "change": export(args.change, workdir)}
    for side, tree in trees.items():
        print(f"{side}: {tree}", file=sys.stderr)
        run_once(tree, args, 1)  # builds, and lets caches and lazy set-up settle
    records = []
    with open(args.records, "x", encoding="utf-8") as out:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                rec = {"side": side, "pair": pair, "workload": args.workload,
                       "seed": args.seed, "seconds": args.seconds,
                       "result": run_once(trees[side], args, args.seconds)}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                records.append(rec)
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    return records


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--workload", choices=["decode", "prefill", "fault_storm", "sweep"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workdir", default=str(ROOT / ".ab_work"))
    ap.add_argument("--records", help="new JSONL file the result lines are written to")
    ap.add_argument("--from-records", help="analyze this JSONL file instead of running")
    ap.add_argument("--claim", help="metric whose gain is claimed (sets the exit status)")
    args = ap.parse_args()

    try:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.from_records:
            with open(args.from_records, encoding="utf-8") as f:
                records = [json.loads(line) for line in f if line.strip()]
        else:
            if not (args.parent and args.change and args.workload and args.records):
                ap.error("PARENT, CHANGE, --workload and --records are required to run")
            records = measure(args)
        rows = compare(records, benchmark)
    except (OSError, ValueError, KeyError, RuntimeError, subprocess.CalledProcessError) as e:
        print(f"ab.py: {e}", file=sys.stderr)
        return 2

    print_rows(rows)
    verdicts = {r["metric"]: r["verdict"] for r in rows}
    failed = [m for m, v in verdicts.items() if v == "worse"]
    if args.claim:
        held = verdicts.get(args.claim) == "claim"
        print(f"claim {args.claim}: {'holds' if held else 'does not hold'}")
        if not held:
            failed.append(args.claim)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
