#!/usr/bin/env python3
"""Repository benchmark entry point (see BENCHMARK.json and perfbench/README.md).

    python3 perfbench/run.py --workload static_grid|dvs_grid \
        --seed N --seconds S --trace 0|1 [--reduced]

Run from the repository root. Builds perfbench/ (and with it the library)
into $CARGO_TARGET_DIR or .bench_build/, runs one measuring process, checks
that its metrics are exactly the ones BENCHMARK.json declares, and prints
the process's report with its JSON result as the last line. Exit codes: 0
ok, 1 a correctness gate failed (result still printed), 2 build or usage
failure, 3 the measuring process crashed, timed out or broke the schema.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("static_grid", "dvs_grid")
TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the benchmark; returns the binary path or None."""
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "axsnn_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "axsnn_perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def checked_in_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed), "")


def schema_errors(result, declared):
    """Why `result` is not a valid report for the declared metrics."""
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys are %s" % sorted(result))
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        errors.append("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(declared) - set(metrics)), sorted(set(metrics) - set(declared))))
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s has no finite value" % name)
        if name in declared and metric.get("unit") != declared[name]:
            errors.append("%s unit %r, declared %r" % (name, metric.get("unit"), declared[name]))
    if not isinstance(result.get("attempted"), int) or result.get("attempted", 0) < 1:
        errors.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        errors.append("failed must be a whole number")
    return errors


def run(binary, args, extra=()):
    """Runs one measuring process; returns (exit code, stdout lines, result)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir(), "work")] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: measuring process timed out", file=sys.stderr)
        return 3, [], None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    return proc.returncode, lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--reduced", action="store_true",
                        help="tiny sizes, same code paths (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 2
    extra = ["--reduced"] if args.reduced else []
    digest = "" if args.reduced else checked_in_digest(args.workload, args.seed)
    if digest:
        extra += ["--expect-digest", digest]
    code, lines, result = run(binary, args, extra)
    if result is None or code not in (0, 1):
        print("perfbench: measuring process exited %d without a result" % code,
              file=sys.stderr)
        return 3
    errors = schema_errors(result, declared_metrics(args.trace))
    if errors:
        print("perfbench: report breaks the BENCHMARK.json schema: " + "; ".join(errors),
              file=sys.stderr)
        return 3
    print("\n".join(lines))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
