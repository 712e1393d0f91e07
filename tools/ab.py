#!/usr/bin/env python3
"""Paired A/B runs of the benchmark: a git revision against this checkout, in one JSON file.

    python3 tools/ab.py --base HEAD~1 --seeds 201-210 --out BENCH_16.json

The base revision is checked out into a temporary git worktree, as
``output_digest.py --against`` does; the candidate is this checkout as it
stands, uncommitted edits included.  For each seed, every workload of the
base tree's BENCHMARK.json is run once on each side with
``perfbench/run.py --trace 0`` for the benchmark's own ``run_seconds``, the
base first on even pairs and the candidate first on odd ones, so a drift in
the host's speed falls on both sides alike.  Then this checkout's
``tools/output_digest.py --against`` runs at seed 0 and size divisor 8, and
the keys it prints (those that differ between the two trees) are recorded.
Each side then makes one short ``perfbench/run.py --trace 1`` run per
workload at the first seed (two traced runs, whatever the time), and the
report keeps the per-layer metrics the base tree's BENCHMARK.json counts in
unit ``count`` (``pde.nt``, ``model.coeff_rows``, ``hamilton.calls`` and the
like), which do not depend on the host's speed, and lists per workload the
counters that differ between the sides.  Last, each side runs the tier-1
tests once (CI's pytest command) and ``ctrlstop verify`` once; the report
keeps the tier-1 wall time and summary line, and each acceptance check's
seconds and verdict as verify prints them.

Per workload and end-to-end metric (the ``end_to_end`` entries of the base
tree's BENCHMARK.json) the report gives each side's median and quartiles,
the median of the per-pair ratio candidate / base, the pairs the candidate
won and lost (ties count for neither), and whether the candidate's median is
worse than the base's by more than the metric's relative bound.  Runs that
failed the benchmark's gate (``correct`` false), raised or printed no result
are listed by seed; a digest run that fails is recorded with its error.  The
summary, every run and the digest lines go to ``--out``; a table goes to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "candidate")
DIGEST_ARGS = ("--seed", "0", "--shrink", "8")
# run.py makes at least three runs with --trace 1, two of them traced, however short the budget
COUNTER_SECONDS = 1.0


def parse_seeds(text: str) -> list[int]:
    """``"101-110"`` or ``"1,2,5"`` (or a mix of both) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds or min(seeds) < 0:
        raise ValueError(f"no non-negative seeds in {text!r}")
    return seeds


def _spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of at least one value."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per-workload summary of paired runs; no I/O.

    ``pairs`` holds one record per (seed, workload): ``{"seed", "workload",
    "base", "candidate"}``, each side a run record with ``correct`` and a
    ``metrics`` map of name -> value, or an ``error`` when the run produced
    no result.  ``metrics`` lists ``{"name", "better", "bound"}`` as in
    BENCHMARK.json's ``end_to_end``; the bound is relative to the base median.
    """
    out = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        rows = [p for p in pairs if p["workload"] == workload]
        entry = {
            "pairs": len(rows),
            "failed": {side: [p["seed"] for p in rows if not p[side].get("correct", False)] for side in SIDES},
            "metrics": {},
        }
        for metric in metrics:
            name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
            both = [
                (p["base"]["metrics"][name], p["candidate"]["metrics"][name])
                for p in rows
                if all(name in p[side].get("metrics", {}) for side in SIDES)
            ]
            if not both:
                continue
            base = [b for b, _ in both]
            cand = [c for _, c in both]
            stats = {"base": _spread(base), "candidate": _spread(cand)}
            excess = sign * (stats["candidate"]["median"] - stats["base"]["median"]) / abs(stats["base"]["median"])
            entry["metrics"][name] = {
                **stats,
                "n": len(both),
                "ratio_median": statistics.median(c / b for b, c in both),
                "won": sum(1 for b, c in both if sign * (c - b) < 0),
                "lost": sum(1 for b, c in both if sign * (c - b) > 0),
                "bound": metric["bound"],
                "within_bound": excess <= metric["bound"],
            }
        out[workload] = entry
    return out


def counter_names(per_layer: list[dict]) -> list[str]:
    """The per-layer metrics (BENCHMARK.json's ``per_layer`` entries) counted in unit ``count``."""
    return [m["name"] for m in per_layer if m["unit"] == "count"]


def moved_counters(counters: dict) -> dict:
    """Workload -> {counter: {"base": value, "candidate": value}} for each counter that differs; no I/O.

    ``counters`` maps workload -> side -> {counter: value}; a counter one
    side lacks reads None there and so differs.
    """
    out = {}
    for workload, sides in counters.items():
        names = dict.fromkeys([*sides["base"], *sides["candidate"]])
        out[workload] = {
            name: {side: sides[side].get(name) for side in SIDES}
            for name in names
            if sides["base"].get(name) != sides["candidate"].get(name)
        }
    return out


def _commit(tree: Path) -> str:
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    dirty = subprocess.run(["git", "-C", str(tree), "status", "--porcelain"], capture_output=True, text=True)
    return proc.stdout.strip() + ("+uncommitted" if dirty.stdout.strip() else "")


def bench_run(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``perfbench/run.py`` invocation in ``tree``; its last stdout line, flattened."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    error = proc.stderr.strip().splitlines()[-5:]
    if proc.returncode != 0:
        return {"correct": False, "error": error}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        }
    except (IndexError, KeyError, TypeError, ValueError) as exc:  # no last line, or not the run's JSON result
        return {"correct": False, "error": [repr(exc), *error]}


def _python(tree: Path, argv: list[str]) -> subprocess.CompletedProcess:
    """``python argv`` in ``tree``, importing that tree's package."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, *argv], cwd=tree, capture_output=True, text=True, env=env)


def tier1_run(tree: Path) -> dict:
    """The tier-1 tests once in ``tree``: wall seconds, exit status and pytest's last line."""
    start = time.perf_counter()
    proc = _python(tree, ["-m", "pytest", "-q", "--continue-on-collection-errors"])
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"seconds": seconds, "returncode": proc.returncode, "summary": lines[-1] if lines else ""}


# one line of acceptance.render: "[PASS]  8  <name>  (3.21s)  <detail>"
_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\]\s+(\d+)\s+.*?\((\d+(?:\.\d+)?)s\)")


def parse_verify(text: str) -> dict:
    """Check id -> {"seconds", "passed"} from the report ``ctrlstop verify`` prints."""
    checks = {}
    for line in text.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            checks[m.group(2)] = {"seconds": float(m.group(3)), "passed": m.group(1) == "PASS"}
    return checks


def verify_run(tree: Path) -> dict:
    """``ctrlstop verify`` once in ``tree``: wall seconds, exit status and each check's line."""
    start = time.perf_counter()
    proc = _python(tree, ["-m", "ctrlstop.cli", "verify"])
    seconds = time.perf_counter() - start
    out = {"seconds": seconds, "returncode": proc.returncode, "checks": parse_verify(proc.stdout)}
    if not out["checks"]:
        out["error"] = proc.stderr.strip().splitlines()[-5:]
    return out


def digest_diff(base: str) -> dict:
    """The lines of ``output_digest.py --against base`` run in this checkout, or its error."""
    argv = [sys.executable, str(ROOT / "tools" / "output_digest.py"), *DIGEST_ARGS, "--against", base]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    stderr = proc.stderr.strip().splitlines()
    if proc.returncode not in (0, 1) or not stderr or not stderr[-1].endswith(f"keys differ from {base}"):
        return {"error": [f"exit status {proc.returncode}", *stderr[-5:]]}
    return {"lines": proc.stdout.splitlines()}


def render(summary: dict, moved: dict, tier1: dict, verify: dict) -> str:
    lines = []
    for workload, entry in summary.items():
        failed = ", ".join(f"{side} {entry['failed'][side]}" for side in SIDES if entry["failed"][side])
        lines.append(f"== {workload}: {entry['pairs']} pairs" + (f"; failed runs: {failed}" if failed else ""))
        changes = moved.get(workload, {})
        lines.append("  counters: " + (", ".join(
            f"{name} {v['base']} -> {v['candidate']}" for name, v in changes.items()) or "none moved"))
        for name, m in entry["metrics"].items():
            b, c = m["base"], m["candidate"]
            lines.append(
                f"  {name:<12} base {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
                f"  candidate {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
                f"  ratio {m['ratio_median']:.3f}  won {m['won']}/{m['n']} lost {m['lost']}"
                f"  {'within' if m['within_bound'] else 'BEYOND'} bound {m['bound']}"
            )
    for side in SIDES:
        passed = sum(c["passed"] for c in verify[side]["checks"].values())
        lines.append(
            f"== {side}: tier-1 {tier1[side]['seconds']:.1f} s ({tier1[side]['summary']});"
            f" verify {verify[side]['seconds']:.1f} s, {passed}/{len(verify[side]['checks'])} checks passed"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, metavar="REV", help="git revision of the base side")
    parser.add_argument("--seeds", required=True, help="benchmark seeds, e.g. 101-110 or 1,2,5")
    parser.add_argument("--out", required=True, help="JSON report, e.g. BENCH_<pr>.json")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    sys.path.insert(0, str(ROOT / "tools"))
    from output_digest import worktree

    with worktree(args.base) as base_tree:
        trees = {"base": base_tree, "candidate": ROOT}
        bench = json.loads((base_tree / "BENCHMARK.json").read_text())
        pairs = []
        for k, seed in enumerate(seeds):
            for workload in (w["name"] for w in bench["workloads"]):
                record = {"seed": seed, "workload": workload, "first": SIDES[k % 2]}
                for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                    record[side] = bench_run(trees[side], workload, seed, bench["run_seconds"])
                pairs.append(record)
                print(f"ab: seed {seed} {workload} done", file=sys.stderr)
        names = counter_names(bench["per_layer"])
        counters = {}
        for workload in (w["name"] for w in bench["workloads"]):
            counters[workload] = {}
            for side in SIDES:
                run = bench_run(trees[side], workload, seeds[0], COUNTER_SECONDS, trace=1)
                values = run.get("metrics", {})
                counters[workload][side] = {name: values[name] for name in names if name in values}
            print(f"ab: counters {workload} done", file=sys.stderr)
        tier1 = {side: tier1_run(trees[side]) for side in SIDES}
        verify = {side: verify_run(trees[side]) for side in SIDES}
        commits = {side: _commit(trees[side]) for side in SIDES}
    digest = {"args": list(DIGEST_ARGS), **digest_diff(args.base)}

    summary = summarize(pairs, bench["end_to_end"])
    moved = moved_counters(counters)
    report = {
        "base": {"rev": args.base, "commit": commits["base"]},
        "candidate": {"rev": "checkout", "commit": commits["candidate"]},
        "seeds": seeds,
        "seconds": bench["run_seconds"],
        "host": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                 "machine": platform.machine()},
        "summary": summary,
        "digest": digest,
        "counters": {"seed": seeds[0], "seconds": COUNTER_SECONDS, "values": counters, "moved": moved},
        "tier1": tier1,
        "verify": verify,
        "runs": pairs,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(render(summary, moved, tier1, verify), file=sys.stderr)
    digest_note = f"{len(digest['lines'])} keys differ" if "lines" in digest else "digest run FAILED"
    print(f"digest: {digest_note}; wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
