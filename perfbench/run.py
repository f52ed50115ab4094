#!/usr/bin/env python3
"""Wall-clock benchmark of the sharded set-similarity index.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload near_dup --seed 1 --seconds 10 --trace 0

Builds the library and the benchmark from source into .bench_build (or
$CARGO_TARGET_DIR when set), runs the statistics self-check, then runs one
workload. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Exits non-zero, without a result, when the checkout cannot be built or the
run does not complete.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, capture=False):
    """Runs cmd to completion (killing it on timeout); returns (code, stdout)."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("timed out: " + " ".join(cmd))
    return proc.returncode, out or ""


def build(build_dir):
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no source tree to build (missing %s)" % needed)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if code != 0:
            fail("configure failed")
    code, _ = run(["cmake", "--build", build_dir, "--target", "perfbench",
                   "-j4"], BUILD_TIMEOUT_S)
    if code != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)

    code, out = run([binary, "--selftest"], RUN_TIMEOUT_S, capture=True)
    sys.stdout.write(out)
    if code != 0:
        fail("statistics self-check failed")

    scratch = os.path.join(build_dir, "run-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(scratch)
    try:
        code, out = run([binary, "--workload", args.workload,
                         "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace),
                         "--scratch", scratch,
                         "--cache", os.path.join(
                             build_dir, "inputs-%d" % os.stat(binary).st_mtime_ns),
                         "--spans", os.path.join(
                             build_dir, "spans-%s.jsonl" % args.workload)],
                        RUN_TIMEOUT_S, capture=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail("benchmark exited with code %d" % code)
    result = json.loads(lines[-1])
    names = [m["name"] for m in wanted]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("metrics missing from the result: " + ", ".join(missing))
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = {n: result["metrics"][n] for n in names}
    for name in names:
        if metrics[name]["unit"] != units[name]:
            fail("unit of %s is %s, BENCHMARK.json says %s"
                 % (name, metrics[name]["unit"], units[name]))
    for line in lines[:-1]:
        print(line)
    for name in names:
        print("%-34s %16.6g %s" % (name, metrics[name]["value"], units[name]))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
