#!/usr/bin/env python3
"""Smoke test of the benchmark harness at reduced sizes.

    python3 perfbench/smoke.py        # about a minute on two cores

Runs every workload declared in BENCHMARK.json through run.py with grids and
path counts divided by SHRINK, once untraced and once traced, and checks
that each prints, as its last line, a well-formed result with exactly the
metrics BENCHMARK.json declares for that mode and their units.  Whether the
program's outputs pass the correctness gate is the benchmark's finding, not
the harness's, so a failed gate is printed but does not fail the smoke test.  It also checks that run.py refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and the benchmark files,
and that a traced run whose wrapped binding is gone reports the metrics it
fed as absent instead of failing.
Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SHRINK = 2
SECONDS = 1
TIMEOUT_S = 600


def check_result(line: str, declared: dict, label: str) -> list[str]:
    problems = []
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys are {sorted(result)}")
        return problems
    attempted, failed = result["attempted"], result["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int) and attempted >= 1 and 0 <= failed <= attempted):
        problems.append(f"{label}: attempted={attempted!r} failed={failed!r}")
    if result["correct"] is not (failed == 0):
        problems.append(f"{label}: correct={result['correct']!r} with failed={failed!r}")
    if failed:
        print(f"{label}: {failed} of {attempted} runs failed the correctness gate", file=sys.stderr)
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        problems.append(f"{label}: missing metrics {missing}, undeclared metrics {extra}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{label}: {name} is not a finite number ({value!r})")
        if name in declared and entry.get("unit") != declared[name]:
            problems.append(f"{label}: {name} has unit {entry.get('unit')!r}, declared {declared[name]!r}")
    return problems


def run(command, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_refusal(spec: dict) -> list[str]:
    """run.py must fail, printing no result, without the package sources."""
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        workload = spec["workloads"][0]["name"]
        proc = run([*spec["command"], "--workload", workload, "--seed", "1",
                    "--seconds", str(SECONDS), "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout.strip()!r}"]
    return []


def check_absent_binding() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import ctrlstop.mc
    import run as bench
    import spans
    import workloads

    # solve_rbsde only calls this binding for generator="dominating", so the
    # workload still runs without it
    saved = ctrlstop.mc.dominating_generator_batch
    del ctrlstop.mc.dominating_generator_batch
    try:
        runs, _ = bench.measure("rbsde-5d", 1, SECONDS, True, workloads.scaled("rbsde-5d", 8))
    finally:
        ctrlstop.mc.dominating_generator_batch = saved
    metrics, absent = bench.per_layer(runs, bench.load_reference("rbsde-5d"))
    problems = [f"absent binding: run failed: {f}" for r in runs for f in r["failures"]]
    if set(absent) != set(spans.HAMILTON_METRICS) or set(absent) & set(metrics):
        problems.append(f"absent binding: reported absent {absent}, emitted {sorted(metrics)}")
    return problems


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    modes = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = check_refusal(spec) + check_absent_binding()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in modes.items():
            label = f"{workload} --trace {trace}"
            proc = run([*spec["command"], "--workload", workload, "--seed", "1", "--seconds",
                        str(SECONDS), "--trace", str(trace), "--shrink", str(SHRINK)], ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            problems += check_result(lines[-1], declared, label)
            print(f"checked {label}", file=sys.stderr)
    for problem in problems:
        print(f"SMOKE FAIL {problem}", file=sys.stderr)
    if not problems:
        print("smoke test passed", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
