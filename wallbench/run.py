#!/usr/bin/env python3
"""Build and run the hpf-cg wall-clock benchmark.

    python3 wallbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds wallbench/ (CMake, Release, over the repository's src/) into
.bench_build/wallbench under the repository root, runs one workload, checks
the result line against BENCHMARK.json and prints it as the last line of
standard output. Build output goes to standard error. With --trace 1 the
benchmark's spans are written to .bench_build/traces/.

Exit status is nonzero, with no result line, when the sources are missing,
the build fails, the run fails or exceeds its time limit, or the result
does not match the metrics BENCHMARK.json declares.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wallbench")
BINARY = os.path.join(BUILD, "wallbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    """Configure once, then (re)build the benchmark binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found in " + ROOT + "/src")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "wallbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


def declared_metrics(trace):
    """{name: unit} of the metrics a run in this mode must report."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Raise BenchError unless `result` is a well-formed result line."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError("result keys: " + ", ".join(sorted(result)))
    if not isinstance(result["correct"], bool):
        raise BenchError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise BenchError(key + " is not a whole number")
    if result["attempted"] < 1:
        raise BenchError("no solve attempted")
    declared = declared_metrics(trace)
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        raise BenchError("metrics differ from BENCHMARK.json: missing %s, "
                         "undeclared %s" % (missing, extra))
    for name, m in metrics.items():
        value = m.get("value")
        if not NAME_RE.match(name):
            raise BenchError("bad metric name " + name)
        if m.get("unit") != declared[name]:
            raise BenchError("%s: unit %r, declared %r"
                             % (name, m.get("unit"), declared[name]))
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise BenchError("%s: value %r is not a finite number"
                             % (name, value))


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else None


def run(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACES, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError("benchmark exited with %d" % p.returncode)
    result = json.loads(lines[-1])
    check_result(result, args.trace)
    for line in lines[:-1]:
        record = json.loads(line)
        if "manifest" in record:
            record["manifest"]["commit"] = commit() or "unavailable"
        print(json.dumps(record))
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    try:
        build()
        run(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
