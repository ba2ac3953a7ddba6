#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark and the moqo sources into .bench_build/ (RelWithDebInfo); later
runs rebuild incrementally. Every run first executes perfbench_selftest,
then the workload, and passes the workload's output through: an "env:"
line, a "samples:" line and, last, the JSON result object. The result's
metrics are checked against BENCHMARK.json: a traced run reports the
per-layer metrics of the layers its workload bypasses as 0, and any other
missing or unknown name is an error. Exits non-zero, without a result,
when anything fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
BENCH_DIR = "perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("moqo sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs])


def commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the paths and bytes of every file the benchmark builds
    from, so a run names the code it measured even outside a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json lists for this run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def complete_metrics(result, trace):
    """Orders the result's metrics as BENCHMARK.json does, filling in 0 for
    the layers a traced workload bypasses."""
    metrics = result["metrics"]
    expected = expected_metrics(trace)
    extra = set(metrics) - {name for name, _ in expected}
    missing = [name for name, _ in expected if name not in metrics]
    if extra or (missing and not trace):
        fail(f"metric names differ from BENCHMARK.json: missing {missing}, "
             f"extra {sorted(extra)}")
    result["metrics"] = {
        name: metrics.get(name, {"value": 0, "unit": unit})
        for name, unit in expected}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    binary = os.path.join(BUILD_DIR, "perfbench")
    selftest = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        fail("perfbench_selftest failed: the traced RMQ loop no longer "
             "matches RmqSession")

    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           "--references=" + os.path.join(BENCH_DIR, "references.txt"),
           "--out-dir=" + os.path.join(BUILD_DIR, "out"),
           f"--commit={commit()}", f"--source-digest={source_digest()}"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        fail(f"workload {args.workload} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("workload printed no result line")
    complete_metrics(result, args.trace == 1)
    print("\n".join(lines[:-1] + [json.dumps(result)]))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
