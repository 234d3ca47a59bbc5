#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs every workload --runs times per set (each run with its own seed,
workloads interleaved so drift hits them alike), for --sets back-to-back
sets, and prints per metric each set's median and quartiles and the
spread (interquartile range as a share of the median). It then reports,
for every end-to-end metric, whether the spread stays within the
metric's bound and whether the second set's median is
no worse than the first's by more than the bound, and whether the share
of failed operations is identical across sets. Exit code 1 when any of
these fails or a run fails.

Run from the repository root:

    python3 perfbench/steady.py                    # 2 sets x 10 runs
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads corpus_plan
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - started
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, result {result}")
    return result, wall


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    metrics = bench["end_to_end"]

    # results[set][workload] = list of run results
    results = [{w: [] for w in workloads} for _ in range(args.sets)]
    seed = args.first_seed
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                result, wall = run_once(command, w, seed, seconds)
                results[s][w].append(result)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: {wall:.1f} s wall", file=sys.stderr)
            seed += 1

    ok = True
    for w in workloads:
        print(f"\n## {w}")
        print("| metric | unit | " + " | ".join(f"set {s + 1} median [q1, q3] spread" for s in range(args.sets)) + " | verdict |")
        print("|---|---|" + "---|" * args.sets + "---|")
        for m in metrics:
            name, unit = m["name"], m["unit"]
            cells, meds, verdict = [], [], []
            for s in range(args.sets):
                values = [r["metrics"][name]["value"] for r in results[s][w]]
                med, q1, q3, spread = summary(values) if len(values) > 1 else (values[0], values[0], values[0], 0.0)
                meds.append(med)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {spread * 100:.1f}%")
                if spread > m["bound"]:
                    verdict.append(f"set {s + 1} spread > {m['bound'] * 100:.0f}%")
            if len(meds) > 1:
                lower = m["better"] == "lower"
                worse = (meds[1] - meds[0]) / meds[0] if lower else (meds[0] - meds[1]) / meds[0]
                if worse > m["bound"]:
                    verdict.append(f"set 2 worse by {worse * 100:.1f}%")
            ok &= not verdict
            text = "; ".join(verdict) if verdict else "ok"
            print(f"| {name} | {unit} | " + " | ".join(cells) + f" | {text} |")
        shares = {round(sum(r["failed"] for r in results[s][w]) / sum(r["attempted"] for r in results[s][w]), 12)
                  for s in range(args.sets)}
        print(f"\nfailed share per set: {sorted(shares)}")
        ok &= len(shares) == 1
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
