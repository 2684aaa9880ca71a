#!/usr/bin/env python3
"""Smoke test of the benchmark on tiny inputs.

Run from the root of a checkout:

    python3 perfbench/smoke_test.py

Runs every workload untraced, trace-stream included, and one traced
run (the traced run covers every workload) with --size tiny
--seconds 1. Each run must exit 0,
pass every correctness check, and report exactly the metrics
BENCHMARK.json names, with their units. A copy of the benchmark
without the sources must fail without printing a result. Exits
non-zero on the first failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=900)


def check_run(workload, trace, expected):
    result = run(workload, trace)
    label = f"{workload} --trace {trace}"
    if result.returncode != 0:
        sys.exit(f"FAIL {label}: exit {result.returncode}\n"
                 f"{result.stderr[-4000:]}")
    lines = result.stdout.splitlines()
    final = json.loads(lines[-1])
    if sorted(final) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"FAIL {label}: result keys {sorted(final)}")
    if final["correct"] is not True or final["failed"] != 0 \
            or final["attempted"] < 1:
        sys.exit(f"FAIL {label}: correct={final['correct']} "
                 f"attempted={final['attempted']} "
                 f"failed={final['failed']}\n{result.stderr[-4000:]}")
    metrics = final["metrics"]
    if set(metrics) != set(expected):
        sys.exit(f"FAIL {label}: missing "
                 f"{sorted(set(expected) - set(metrics))}, unexpected "
                 f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics[name]
        value = entry.get("value")
        if entry.get("unit") != unit:
            sys.exit(f"FAIL {label}: {name} unit {entry.get('unit')!r}, "
                     f"BENCHMARK.json says {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            sys.exit(f"FAIL {label}: {name} value {value!r}")
        if trace == 0 and value == 0:
            sys.exit(f"FAIL {label}: end-to-end metric {name} is 0")
    if not any(line.startswith('{"fingerprint"') for line in lines):
        sys.exit(f"FAIL {label}: no fingerprint line")
    print(f"ok   {label}: {len(metrics)} metrics, "
          f"{final['attempted']} checks passed")


def check_without_sources(bench):
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    result = run(bench["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if result.returncode == 0 or '"correct"' in result.stdout:
        sys.exit("FAIL without sources: expected a non-zero exit and "
                 "no result")
    print("ok   without sources: exit", result.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    # trace-stream is not in BENCHMARK.json (README.md says why) but
    # keeps its end-to-end runner.
    if "trace-stream" not in workloads:
        workloads.append("trace-stream")
    for workload in workloads:
        check_run(workload, 0, end_to_end)
    check_run(bench["workloads"][0]["name"], 1, per_layer)
    check_without_sources(bench)
    print("smoke test passed")


if __name__ == "__main__":
    main()
