#!/usr/bin/env python3
"""Builds the KARL benchmark from source and runs one workload.

    python3 perfbench/run.py --workload engine-kde --seed 1 \
        --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source tree. The first run configures and builds
perfbench/ (which pulls in the library as a subproject) under
$CARGO_TARGET_DIR, default .bench_build; later runs rebuild only when a
source file changed. Build output goes to stderr, so the last line of
stdout is always the result object of the perfbench binary:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Its metric names and units are checked against BENCHMARK.json
before the line is passed on; a run that fails, or that misses a metric,
prints no result and exits non-zero.

--self-test runs every workload at a tiny size, untraced and twice traced
with one seed, and asserts that every metric BENCHMARK.json names is
printed with its unit, that no operation failed, and that the exact
counts repeat exactly.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD_ROOT = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "perfbench"
WORK_DIR = BUILD_ROOT / "perfbench-work"
# Limit for one perfbench process; a first run also builds before it.
RUN_TIMEOUT_S = 160

# Counts that depend only on the seed; they must repeat exactly.
EXACT_COUNTS = [
    "core.iterations_per_query",
    "core.nodes_expanded_per_query",
    "core.kernel_evals_per_query",
    "registry.cold_starts",
    "registry.evictions",
    "registry.reloads",
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"missing {path}")
    return json.loads(path.read_text())


def source_files():
    roots = [ROOT / "CMakeLists.txt", ROOT / "src", HERE / "CMakeLists.txt",
             HERE / "src"]
    for root in roots:
        if root.is_file():
            yield root
        elif root.is_dir():
            yield from sorted(p for p in root.rglob("*") if p.is_file())


def source_digest():
    digest = hashlib.sha256()
    for path in source_files():
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build(digest):
    stamp = BUILD_DIR / "source-digest"
    if BINARY.is_file() and stamp.is_file() and stamp.read_text() == digest:
        return
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j4", "--target", "perfbench"],
    ]
    for step in steps:
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            fail("build failed: " + " ".join(step))
    stamp.write_text(digest)


def run_binary(args, digest, timeout_s):
    """Runs perfbench; returns (result object, stdout lines)."""
    command = [str(BINARY), "--work-dir", str(WORK_DIR),
               "--source-digest", digest] + args
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"perfbench timed out after {timeout_s:.0f} s: {' '.join(args)}")
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed nothing")
    return json.loads(lines[-1]), lines


def check_metrics(result, expected):
    """Fails unless `result` carries exactly the metrics in `expected`."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(metrics))}, extra "
             f"{sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        if metrics[name]["unit"] != unit:
            fail(f"{name} has unit {metrics[name]['unit']}, want {unit}")


def self_test(digest, bench):
    for workload in [w["name"] for w in bench["workloads"]]:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1",
                "--smoke"]
        plain, _ = run_binary(base + ["--trace", "0"], digest, RUN_TIMEOUT_S)
        check_metrics(plain, bench["end_to_end"])
        traced = []
        for _ in range(2):
            result, _ = run_binary(base + ["--trace", "1"], digest,
                                   RUN_TIMEOUT_S)
            check_metrics(result, bench["per_layer"])
            traced.append(result)
        for result in [plain] + traced:
            if result["failed"] != 0 or not result["correct"]:
                fail(f"{workload}: {result['failed']} failed operations")
        for name in EXACT_COUNTS:
            values = [r["metrics"][name]["value"] for r in traced]
            if values[0] != values[1]:
                fail(f"{workload}: {name} differs across runs: {values}")
        print(f"self-test {workload}: ok")
    command = [str(BINARY), "--work-dir", str(WORK_DIR), "--source-digest",
               digest, "--workload", "no-such-workload"]
    if subprocess.run(command, capture_output=True).returncode == 0:
        fail("an unknown workload did not fail")
    print("self-test: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    bench = spec()
    digest = source_digest()
    build(digest)
    if args.self_test:
        self_test(digest, bench)
        return
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    result, lines = run_binary(
        ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", str(args.trace)], digest,
        RUN_TIMEOUT_S)
    check_metrics(result,
                  bench["per_layer"] if args.trace else bench["end_to_end"])
    print("\n".join(lines))


if __name__ == "__main__":
    main()
