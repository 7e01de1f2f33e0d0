#!/usr/bin/env python3
"""Measure the benchmark's own spread, within a set and between sets.

    python3 perfbench/spread.py --runs 10 --sets 2 --pause 600

Runs every workload of BENCHMARK.json --runs times, with seeds 1, 2,
..., each through run.py in its own process for the run_seconds that
BENCHMARK.json gives, and repeats that whole set --sets times, --pause
seconds apart. Every set uses the same seeds. For each end-to-end
metric it prints every set's median, its quartile spread as a share of
the median, and how far each later set's median moved from the first
set's, next to the bound in BENCHMARK.json. The end-to-end bounds were
set from what this prints.

The runs of a set have different seeds because that is how the bounds
are applied: a benchmark set is ten runs on ten seeds, so its spread
holds the seed-to-seed variation as well as the host's noise. The
seed-to-seed part shows alone in the metrics that are deterministic per
seed (freshness, ckpt_mb); the incremental workloads fetch the same
number of pages on every seed.

A metric is flagged when its within-set spread exceeds a third of its
bound, or when a later set's median is worse than the first set's by
more than the bound (setup_s is exempt from the spread flag, as it is
from the benchmark's spread rule). The share of failed operations must
be the same in every set. Every run's result line goes to stderr.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} failed")
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--pause", type=float, default=0.0)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: [] for w in workloads}
    for s in range(args.sets):
        if s > 0:
            time.sleep(args.pause)
        for w in workloads:
            runs = []
            for i in range(args.runs):
                runs.append(run_once(w, i + 1, spec["run_seconds"]))
                print(f"set {s + 1} {w} seed {i + 1}: {json.dumps(runs[-1])}",
                      file=sys.stderr, flush=True)
            results[w].append(runs)

    flagged = 0
    for w in workloads:
        sets = results[w]
        print(f"\n{w}")
        shares = {sum(r["failed"] for r in runs) /
                  sum(r["attempted"] for r in runs) for runs in sets}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"  failed share per set: {sorted(shares)}  "
              f"all correct: {correct}")
        if len(shares) != 1 or not correct:
            flagged += 1
        print(f"  {'metric':<14} {'bound':>6}  " + "  ".join(
            f"{'set' + str(s + 1) + ' median':>14} {'spread':>7}"
            for s in range(len(sets))) + "  worst set move")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, medians = [], []
            for runs in sets:
                median, share = spread(
                    [r["metrics"][name]["value"] for r in runs])
                medians.append(median)
                mark = "!" if share > bound / 3 and name != "setup_s" else " "
                flagged += mark == "!"
                cells.append(f"{median:>14.6g} {share:>6.3f}{mark}")
            move = max((worse_by(medians[0], later, m["better"])
                        for later in medians[1:]), default=0.0)
            mark = "!" if move > bound else " "
            flagged += mark == "!"
            print(f"  {name:<14} {bound:>6.3f}  " + "  ".join(cells) +
                  f"  {move:>+8.3f}{mark}")
    print(f"\n{flagged} flag(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
