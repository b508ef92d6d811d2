#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py --runs 10 [--workload NAME ...]

Makes two sets of --runs runs of each workload through perfbench/run.py,
with seeds 1..runs, interleaved run by run (seed 1 of set A, seed 1 of
set B, seed 2 of set A, ...) so that both sets see the same slow drift of
the host. Prints, per workload and metric, each set's median and quartile
spread (Q3 - Q1, from statistics.quantiles(n=4), as a share of the
median), and how much worse set B's median is than set A's, each against
the metric's bound in BENCHMARK.json. The raw results go to stdout as one
JSON line per run first.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = ["A", "B"]


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", seconds, "--trace",
         "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = str(bench["run_seconds"])
    values = {}
    for seed in range(1, args.runs + 1):
        for workload in workloads:
            for name in SETS:
                result = run(workload, seed, seconds)
                print(json.dumps({"workload": workload, "set": name,
                                  "seed": seed, **result}), flush=True)
                if result["failed"]:
                    sys.exit(f"{workload} seed {seed}: "
                             f"{result['failed']} failed")
                for metric, value in result["metrics"].items():
                    values.setdefault((workload, metric, name), []).append(
                        value["value"])
    print("| workload | metric | median A | spread A | median B | spread B "
          "| B worse by | bound | spreads < bound/3 | B within bound |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for metric in bench["end_to_end"]:
        for workload in workloads:
            medians, spreads = [], []
            for name in SETS:
                series = values[(workload, metric["name"], name)]
                q1, _, q3 = statistics.quantiles(series, n=4)
                medians.append(statistics.median(series))
                spreads.append((q3 - q1) / medians[-1])
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            bound = metric["bound"]
            steady = all(s < bound / 3 for s in spreads)
            print(f"| {workload} | {metric['name']} | {medians[0]:.6g} | "
                  f"{spreads[0]:.3f} | {medians[1]:.6g} | {spreads[1]:.3f} | "
                  f"{worse:+.3f} | {bound} | {'yes' if steady else 'NO'} | "
                  f"{'yes' if worse <= bound else 'NO'} |")


if __name__ == "__main__":
    main()
