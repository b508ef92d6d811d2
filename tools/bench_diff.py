#!/usr/bin/env python3
"""Checks perfbench's exact work counts against a committed reference.

    python3 perfbench/run.py --self-test      # builds the binary
    python3 tools/bench_diff.py               # exit 0 iff every count matches
    python3 tools/bench_diff.py --write       # regenerate the reference

Timings on a shared host spread too widely for a CI gate, but the work
counts do not move at all: refinement iterations, node expansions and
kernel evaluations per query, the prune ratio, the index size and the
registry's cold starts, evictions and reloads. This script runs every
workload of the reference once at smoke size, traced, with one seed, on
every SIMD tier the binary can run, and compares each run's counts
exactly against tools/bench_counts.json. The vector tiers are what
production serves, and their leaf sums round differently from the scalar
tier's, yet no count differs between tiers: all are checked against the
one reference. A tier the binary refuses (not compiled in, or not
supported by the CPU; the library's own KARL_SIMD check decides) is
skipped with a note; the scalar tier always runs.

A difference means the change altered how much work a query does. If
that is intended, regenerate the reference with --write (it measures the
scalar tier) and say why in the commit. Standard library only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
DEFAULT_BINARY = BUILD_ROOT / "perfbench" / "perfbench"
DEFAULT_REFERENCE = ROOT / "tools" / "bench_counts.json"

WORKLOADS = ["engine-kde", "model-churn"]
COUNTS = [
    "core.iterations_per_query",
    "core.nodes_expanded_per_query",
    "core.kernel_evals_per_query",
    "core.prune_ratio",
    "index.nodes",
    "index.bytes",
    "registry.cold_starts",
    "registry.evictions",
    "registry.reloads",
]
TIERS = ["scalar", "avx2", "avx512"]
# What src/core/simd/simd.cc's ResolveTier prints when KARL_SIMD names a
# tier this build or CPU cannot run.
TIER_REFUSED = "requests a tier this build/CPU cannot run"
RUN_ARGS = ["--smoke", "--trace", "1", "--seed", "7", "--seconds", "1"]
TIMEOUT_S = 300


def fail(message):
    print(f"bench_diff: {message}", file=sys.stderr)
    sys.exit(2)


def measure(binary, workload, tier):
    """Runs one workload on one SIMD tier; returns {count name: value},
    or None if the binary refuses the tier."""
    env = dict(os.environ, KARL_SIMD=tier)
    with tempfile.TemporaryDirectory(prefix="bench-diff-") as work_dir:
        command = [str(binary), "--work-dir", work_dir, "--source-digest",
                   "bench-diff", "--workload", workload] + RUN_ARGS
        try:
            proc = subprocess.run(command, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, env=env,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{tier} {workload}: perfbench timed out after "
                 f"{TIMEOUT_S} s")
    if (proc.returncode != 0 and tier != "scalar"
            and TIER_REFUSED in proc.stderr):
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"{tier} {workload}: perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{tier} {workload}: perfbench printed nothing")
    result = json.loads(lines[-1])
    if result.get("failed", 1) != 0 or not result.get("correct", False):
        fail(f"{tier} {workload}: {result.get('failed')} failed operations")
    metrics = result["metrics"]
    missing = [name for name in COUNTS if name not in metrics]
    if missing:
        fail(f"{tier} {workload}: perfbench printed no {missing}")
    return {name: metrics[name]["value"] for name in COUNTS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--binary", type=Path, default=DEFAULT_BINARY,
                        help="perfbench binary (default: the one "
                        "perfbench/run.py built)")
    parser.add_argument("--reference", type=Path, default=DEFAULT_REFERENCE)
    parser.add_argument("--write", action="store_true",
                        help="write the measured counts as the reference")
    args = parser.parse_args()

    if not args.binary.is_file():
        fail(f"no perfbench binary at {args.binary}; run "
             "python3 perfbench/run.py --self-test first")
    if args.write:
        measured = {w: measure(args.binary, w, "scalar") for w in WORKLOADS}
        doc = {"run": " ".join(["KARL_SIMD=scalar"] + RUN_ARGS),
               "counts": measured}
        args.reference.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"bench_diff: wrote {args.reference}")
        return

    reference = json.loads(args.reference.read_text())["counts"]
    mismatches = []
    checked = []
    for tier in TIERS:
        for workload in WORKLOADS:
            measured = measure(args.binary, workload, tier)
            if measured is None:
                print(f"bench_diff: the binary cannot run the {tier} tier "
                      "here; skipping it")
                break
            want = reference.get(workload, {})
            for name in COUNTS:
                got = measured[name]
                if name not in want:
                    mismatches.append(f"{tier} {workload} {name}: {got!r}, "
                                      "not in the reference")
                elif got != want[name]:
                    mismatches.append(f"{tier} {workload} {name}: {got!r}, "
                                      f"reference {want[name]!r}")
        else:
            checked.append(tier)
    if mismatches:
        print("bench_diff: work counts differ from "
              f"{args.reference.name}:", file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
        sys.exit(1)
    print(f"bench_diff: {len(checked) * len(WORKLOADS) * len(COUNTS)} "
          f"counts match {args.reference.name} ({', '.join(checked)})")


if __name__ == "__main__":
    main()
