#!/usr/bin/env python3
"""Benchmark of the ctrlstop pipelines: time to an accurate value and policy.

    python3 perfbench/run.py --workload triangle-1d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one table

Each invocation is one fresh process that runs one workload (``all`` starts
one child process per workload).  It first times the set-up in several
fresh child processes, then repeats the workload's pipeline, one run at a
time (a closed loop with one caller), until the next run would end after
``--seconds``; at least two runs are made.  Every run goes through the
correctness gate and the determinism guard; a run that fails either still
counts for timing, ``correct`` turns false and the exit code stays 0 unless
every run raised.  BLAS and OpenMP threads are capped at the number of CPUs
this process may use.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` traced and untraced runs
alternate and it holds the per-layer metrics.  A human-readable table goes
to standard error.  The full record (environment, every run, the errors
against the reference values) is written to ``.bench_out/`` at the root of
the checkout, and the spans of a traced invocation next to it.

End-to-end metrics:

    setup_s      median over SETUP_REPEATS fresh processes of the time to
                 import ctrlstop, build and validate the problem and make its grid
    wall_s       median over the untraced runs of the time spent in the
                 pipeline's layer calls (the checks between them are excluded)
    peak_rss_mb  peak resident set of the invocation's process

The table also prints pde_err and mc_err, the distance of the PDE value and
of the MC value y0 at x0 from the workload's reference in references.json,
and failed_frac, the share of runs that raised or failed a check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# the keys of workloads.PIPELINES, repeated here because importing workloads
# loads numpy, which must come after the thread cap
WORKLOAD_NAMES = ("triangle-1d", "rbsde-5d", "policy-2d-localvol")

SETUP_REPEATS = 3
MIN_RUNS = 2
CHILD_TIMEOUT_S = 170

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "pde.solve_s": "s",
    "pde.node_steps_per_s": "1/s",
    "pde.extract_s": "s",
    "pde.extract_per_solve": "ratio",
    "pde.self_s": "s",
    "pde.nt": "count",
    "pde.cfl_ratio": "ratio",
    "pde.stop_nodes": "count",
    "pde.value_err": "value",
    "mc.backward_s": "s",
    "mc.path_steps_per_s": "1/s",
    "mc.self_s": "s",
    "mc.max_cond": "ratio",
    "mc.min_cell_count": "count",
    "mc.reflections": "count",
    "mc.value_err": "value",
    "paths.simulate_s": "s",
    "paths.path_steps_per_s": "1/s",
    "paths.controlled_s": "s",
    "paths.girsanov_s": "s",
    "paths.self_s": "s",
    "strategy.evaluate_s": "s",
    "strategy.martingale_s": "s",
    "strategy.self_s": "s",
    "strategy.stopped_early": "fraction",
    "hamilton.calls": "count",
    "hamilton.control_evals": "count",
    "hamilton.s": "s",
    "hamilton.self_s": "s",
    "model.coeff_calls": "count",
    "model.coeff_rows": "count",
    "model.coeff_s": "s",
    "trace.overhead_s": "s",
}

# stage clock name -> per-layer metric of its median seconds
STAGES = {
    "pde.solve": "pde.solve_s",
    "pde.extract": "pde.extract_s",
    "mc.backward": "mc.backward_s",
    "paths.simulate": "paths.simulate_s",
    "paths.controlled": "paths.controlled_s",
    "paths.girsanov": "paths.girsanov_s",
    "strategy.evaluate": "strategy.evaluate_s",
    "strategy.martingale": "strategy.martingale_s",
}

# work counters reported as they are (the pipelines record them per run)
COUNTS = (
    "pde.nt", "pde.cfl_ratio", "pde.stop_nodes", "mc.max_cond", "mc.min_cell_count",
    "mc.reflections", "strategy.stopped_early", "hamilton.calls", "hamilton.control_evals",
    "model.coeff_calls", "model.coeff_rows",
)

# must repeat bit-for-bit across the runs of one invocation
GUARDED = ("pde.nt", "pde.stop_nodes", "mc.reflections", "hamilton.control_evals",
           "model.coeff_calls", "v_pde", "y0")

SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
import workloads
workloads.setup(sys.argv[1], workloads.scaled(sys.argv[1], int(sys.argv[2])))
print(repr(time.perf_counter() - start))
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable CPU count; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARIABLES:
        os.environ[var] = str(nproc)
    return nproc


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def check_checkout():
    """Refuse to run without the package sources next to the benchmark."""
    if not (SRC / "ctrlstop" / "__init__.py").is_file():
        fail(f"no package sources under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import ctrlstop

    if Path(ctrlstop.__file__).resolve().parent != (SRC / "ctrlstop").resolve():
        fail(f"imported ctrlstop from {ctrlstop.__file__}, not from {SRC}")


def median(values):
    return statistics.median(values) if values else math.nan


# -- environment record --------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ctrlstop").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_cap": {var: os.environ[var] for var in THREAD_VARIABLES},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# -- measurement ---------------------------------------------------------------------------


def measure_setup(workload: str, shrink: int) -> list[float]:
    """Set-up seconds in SETUP_REPEATS fresh processes, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, workload, str(shrink)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Guard:
    """Determinism guard: each guarded quantity must repeat bit-for-bit."""

    def __init__(self):
        self.first = {}

    def mismatches(self, observed: dict) -> list[str]:
        out = []
        for key in GUARDED:
            if key not in observed:
                continue
            value = observed[key]
            if key not in self.first:
                self.first[key] = value
            elif value != self.first[key]:
                out.append(f"{key} changed between runs: {self.first[key]!r} -> {value!r}")
        return out


def run_once(pipeline, spec, grid, seeds, sizes, clock, tracer=None) -> dict:
    """One pipeline run; an exception becomes a failed run, never an abort."""
    import spans

    record = {"traced": tracer is not None, "failures": [], "absent": []}
    start = time.perf_counter()
    try:
        if tracer is None:
            out = pipeline(spec, grid, seeds, sizes, clock, spec)
        else:
            with spans.instrument(tracer, spec) as (traced_spec, absent):
                out = pipeline(traced_spec, grid, seeds, sizes, clock, spec)
            record["absent"] = sorted(absent)
    except Exception:
        record["wall_s"] = time.perf_counter() - start
        record["failures"].append(traceback.format_exc())
        return record
    record["wall_s"] = clock.busy
    record["stages"] = dict(clock.seconds)
    record["values"] = out.values
    record["counts"] = dict(out.counts)
    record["failures"] = list(out.failures)
    if tracer is not None:
        record["counts"].update(tracer.counts)
        inclusive, own = tracer.layer_times(tracer.run)
        record["layer_s"] = inclusive
        record["self_s"] = own
    return record


def measure(workload: str, seed: int, seconds: float, traced: bool, sizes: dict) -> tuple[list, object]:
    """Repeat the pipeline until the next run would overrun ``seconds``."""
    import spans
    import workloads

    spec, grid = workloads.setup(workload, sizes)
    seeds = workloads.path_seeds(workload, seed)
    pipeline = workloads.PIPELINES[workload]
    tracer = spans.Tracer(workload) if traced else None
    guard = Guard()
    runs = []
    begin = time.perf_counter()
    while True:
        # traced invocations alternate traced and untraced runs, traced first
        use_tracer = traced and len(runs) % 2 == 0
        if use_tracer:
            tracer.start_run(len(runs))
            clock = tracer
        else:
            clock = spans.StageClock()
        record = run_once(pipeline, spec, grid, seeds, sizes, clock, tracer if use_tracer else None)
        if "values" in record:
            record["failures"] += guard.mismatches({**record["counts"], **record["values"]})
        runs.append(record)
        elapsed = time.perf_counter() - begin
        needed = MIN_RUNS + (1 if traced else 0)
        if len(runs) >= needed and elapsed + record["wall_s"] > seconds:
            break
    return runs, tracer


# -- metrics -----------------------------------------------------------------------------


def load_reference(workload: str) -> float:
    with open(BENCH_DIR / "references.json") as fh:
        return float(json.load(fh)[workload]["value"])


# headline estimate -> (name of its error, per-layer metric)
ESTIMATES = {"v_pde": ("pde_err", "pde.value_err"), "y0": ("mc_err", "mc.value_err")}


def errors(runs: list, reference: float) -> dict:
    """Absolute error of each headline estimate against the reference value."""
    ok = [r for r in runs if "values" in r]
    out = {}
    for key, (name, _) in ESTIMATES.items():
        values = [r["values"][key] for r in ok if key in r["values"]]
        if values:
            out[name] = abs(median(values) - reference)
    return out


def end_to_end(runs: list, setup_times: list) -> dict:
    # a run that raised did not finish its pipeline; gate failures did
    walls = [r["wall_s"] for r in runs if "values" in r]
    return {
        "setup_s": median(setup_times),
        "wall_s": median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runs: list, reference: float) -> tuple[dict, list]:
    """Median of each per-layer metric over the traced runs; (metrics, absent)."""
    traced = [r for r in runs if r["traced"] and "values" in r]
    plain = [r for r in runs if not r["traced"] and "values" in r]
    absent = sorted({name for r in traced for name in r["absent"]})

    def stage(r, name):
        return r["stages"].get(name, 0.0)

    def rate(work, secs):
        return work / secs if secs > 0 else 0.0

    per_run = []
    for r in traced:
        c = r["counts"]
        m = {metric: stage(r, name) for name, metric in STAGES.items()}
        m.update({name: float(c.get(name, 0)) for name in COUNTS})
        solve_s, extract_s = m["pde.solve_s"], m["pde.extract_s"]
        m["pde.node_steps_per_s"] = rate(c.get("pde.nodes", 0) * c.get("pde.nt", 0), solve_s)
        m["pde.extract_per_solve"] = rate(extract_s, solve_s)
        m["mc.path_steps_per_s"] = rate(c.get("mc.path_steps", 0), m["mc.backward_s"])
        m["paths.path_steps_per_s"] = rate(c.get("paths.path_steps", 0), m["paths.simulate_s"])
        for layer in ("pde", "mc", "paths", "strategy", "hamilton"):
            m[f"{layer}.self_s"] = r["self_s"].get(layer, 0.0)
        m["hamilton.s"] = r["layer_s"].get("hamilton", 0.0)
        m["model.coeff_s"] = r["layer_s"].get("model", 0.0)
        for key, (_, metric) in ESTIMATES.items():
            m[metric] = abs(r["values"][key] - reference) if key in r["values"] else 0.0
        per_run.append(m)

    metrics = {name: median([m[name] for m in per_run]) for name in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in plain])
    for name in absent:
        metrics.pop(name, None)
    return metrics, absent


# -- reporting ------------------------------------------------------------------------------


def table(workload: str, rows: dict, units: dict, samples: dict, default_samples: int) -> str:
    """One line per metric: name, value, unit and the number of samples behind it."""
    lines = [f"== {workload}"]
    for name, value in rows.items():
        unit = units.get(name, "value" if name.endswith("_err") else "fraction")
        n = samples.get(name, default_samples)
        lines.append(f"  {name:<26} {value:>16.6g} {unit:<9} n={n}")
    return "\n".join(lines)


def run_workload(args, nproc: int) -> int:
    check_checkout()
    import workloads

    sizes = workloads.scaled(args.workload, args.shrink)
    setup_times = measure_setup(args.workload, args.shrink)
    runs, tracer = measure(args.workload, args.seed, args.seconds, bool(args.trace), sizes)

    failed = sum(1 for r in runs if r["failures"])
    reference = load_reference(args.workload)
    errs = errors(runs, reference)
    timed = [r for r in runs if not r["traced"]]
    stage_medians = {
        metric: median([r["stages"].get(name, 0.0) for r in timed if "stages" in r])
        for name, metric in STAGES.items()
        if any(name in r.get("stages", {}) for r in timed)
    }
    absent = []
    if args.trace:
        metrics, absent = per_layer(runs, reference)
        units = PER_LAYER
        rows = metrics
        samples = len(runs) - len(timed)
    else:
        metrics = end_to_end(runs, setup_times)
        units = END_TO_END
        rows = {**metrics, **errs, "failed_frac": failed / len(runs), **stage_medians}
        samples = len(timed)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(OUT_DIR / f"spans-{stem}.jsonl")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
        "environment": environment(nproc),
        "setup_s_samples": setup_times,
        "untraced_stage_s": stage_medians,
        "errors": errs,
        "failed_frac": failed / len(runs),
        "absent": absent,
        "metrics": metrics,
        "runs": runs,
    }
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    print(table(args.workload, rows, {**units, **PER_LAYER}, {"setup_s": len(setup_times)}, samples),
          file=sys.stderr)
    for r in runs:
        for message in r["failures"]:
            print(f"FAILED run: {message}", file=sys.stderr)
    if absent:
        print(f"absent (binding not found): {', '.join(absent)}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    # a run that failed a check still measured its pipeline; only a workload
    # whose every run raised has nothing to report
    return 0 if any("values" in r for r in runs) else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, then one summary table."""
    check_checkout()
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--shrink", str(args.shrink)],
            cwd=ROOT, capture_output=True, text=True, timeout=None,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shrink", type=int, default=1,
                        help="divide grids and path counts by this (smoke runs only)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.shrink < 1 or args.seed < 0:
        parser.error("--seconds must be positive, --shrink at least 1 and --seed non-negative")
    nproc = cap_threads()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
