#!/usr/bin/env python3
"""Self-test of the repository benchmark: python3 perfbench/selftest.py

Runs every workload at reduced size, untraced and traced, and checks that
  * each run passes its correctness gates and reports every metric
    BENCHMARK.json names, with the declared unit and a finite value;
  * every per-layer metric is measured (non-zero) by at least one workload,
    apart from counters whose healthy value is zero;
  * a deliberately wrong checked-in digest shows up as a failed operation
    (exit 1, result printed, correct false), not as a crash.
Exits 0 when all checks hold. Takes about a minute after the build.
"""
import argparse
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

# Counters whose healthy value is 0 in every workload.
ZERO_WHEN_HEALTHY = {
    "store.corrupt", "serve.failed", "serve.rejected",
    "runtime.allocs_per_forward", "serve.allocs_per_request",
    "scenario.craft_cache_hits",
}


def reduced_run(binary, workload, trace, extra=()):
    args = argparse.Namespace(workload=workload, seed=1, seconds=1, trace=trace)
    return bench.run(binary, args, ["--reduced"] + list(extra))


def main():
    binary = bench.build()
    if binary is None:
        return 2
    failures = []
    measured = set()
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            label = "%s trace %d" % (workload, trace)
            code, _, result = reduced_run(binary, workload, trace)
            if result is None:
                failures.append("%s: no result (exit %d)" % (label, code))
                continue
            for error in bench.schema_errors(result, bench.declared_metrics(trace)):
                failures.append("%s: %s" % (label, error))
            if code != 0 or not result["correct"] or result["failed"] != 0:
                failures.append("%s: exit %d, correct %s, failed %s" % (
                    label, code, result["correct"], result["failed"]))
            measured |= {n for n, m in result["metrics"].items() if m["value"] != 0}
            print("ok  " if not failures else "..  ", label, flush=True)

    unmeasured = sorted(set(bench.declared_metrics(1)) - measured - ZERO_WHEN_HEALTHY)
    if unmeasured:
        failures.append("per-layer metrics no workload measured: %s" % unmeasured)

    code, _, result = reduced_run(binary, "static_grid", 0,
                                  ["--expect-digest", "0" * 16])
    if result is None or code != 1 or result["correct"] or result["failed"] < 1:
        failures.append("wrong digest: expected exit 1 with a failed operation, got "
                        "exit %d, result %s" % (code, result))
    else:
        print("ok   wrong digest counted as %d failed operation(s)" % result["failed"])

    for failure in failures:
        print("FAIL", failure)
    print("selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
