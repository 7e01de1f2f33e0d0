#!/usr/bin/env python3
"""Run one webevo benchmark workload and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout. It builds the perfbench program,
with the webevo library and the webevo_checkpoint inspector it needs,
from source into .bench_build/perfbench, then runs the workload in a
process of its own. Build output goes to stderr.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. The line before it carries the digest of the run's final
checkpoint, view and counters, which tells whether a change moved any
output byte.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# webevo_checkpoint section name -> per-layer metric. The periodic
# crawler's BFS queue is its frontier and its cycle seen-set plays the
# part of AllUrls.
SECTIONS = {
    "web": "snapshot.web_mb",
    "update": "snapshot.update_mb",
    "collection": "snapshot.collection_mb",
    "collection-current": "snapshot.collection_mb",
    "collection-shadow": "snapshot.collection_mb",
    "allurls": "snapshot.allurls_mb",
    "seen": "snapshot.allurls_mb",
    "frontier": "snapshot.frontier_mb",
    "bfs": "snapshot.frontier_mb",
    "defense": "snapshot.defense_mb",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {step[:2]} did not finish: {e}")
        if done.returncode != 0:
            fail(f"build step {step[:2]} failed")


def section_sizes(image):
    """Section bytes of a checkpoint image, as webevo_checkpoint reads them."""
    tool = BUILD / "webevo" / "webevo_checkpoint"
    done = subprocess.run([str(tool), "inspect", str(image)],
                          capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail(f"webevo_checkpoint inspect failed: {done.stdout}{done.stderr}")
    sizes = {metric: 0.0 for metric in SECTIONS.values()}
    for line in done.stdout.splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[0] in SECTIONS and fields[1].isdigit():
            sizes[SECTIONS[fields[0]]] += int(fields[1]) / (1024.0 * 1024.0)
    return sizes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}")
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    build()
    work = BUILD / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        try:
            done = subprocess.run(
                [str(BUILD / "perfbench"), f"--workload={args.workload}",
                 f"--seed={args.seed}", f"--seconds={args.seconds}",
                 f"--trace={args.trace}", f"--work-dir={work}"],
                stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            fail(f"workload exited with code {done.returncode}")
        raw = json.loads(lines[-1])
        measured = raw["metrics"]
        if args.trace == "1":
            measured.update(section_sizes(work / "final.ckpt"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(f"digest {raw['digest']} workload={args.workload} seed={args.seed}"
          f" rounds={measured.get('rounds', 1):g}")
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
