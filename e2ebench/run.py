#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

    python3 e2ebench/run.py --workload hot_zipf --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark is a CMake project of its own
(e2ebench/CMakeLists.txt) over the repository's layer libraries; it is
configured and built into $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench) before every run, which is a no-op once built. The
binary's stdout is passed through; its last line is the JSON result,
checked here against the metric names BENCHMARK.json declares. Exit code 0
only for a complete, correct run.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir, deadline):
    """Configures (once) and builds osum_e2e; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "osum_e2e",
                  "-j", "4"])
    for cmd in steps:
        try:
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=max(1.0, deadline - time.monotonic()))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                OSError) as e:
            fail("build failed: %s" % e, 3)
    return os.path.join(build_dir, "osum_e2e")


def check_result(line, trace):
    """The last stdout line must be the result with exactly the metrics
    BENCHMARK.json declares for this mode."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON", 4)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    want = sorted(m["name"] for m in declared)
    got = sorted(result.get("metrics", {}))
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has keys %s" % sorted(result), 4)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" %
             (missing, extra), 4)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + 900 + RUN_TIMEOUT_S

    for needed in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s not found in %s: run from a full checkout of the "
                 "repository" % (needed, ROOT))

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2ebench")
    binary = build(build_dir, deadline)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S, 5)
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    check_result(lines[-1], args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
