#!/usr/bin/env python3
"""SHA-256 digests of everything the benchmark pipelines compute.

    python3 tools/output_digest.py --seed 0 --shrink 8
    python3 tools/output_digest.py --workload policy-2d-localvol --seed 3
    python3 tools/output_digest.py --seed 0 --shrink 8 --against HEAD~1
    python3 tools/output_digest.py --workload pde-variants
    python3 tools/output_digest.py --workload mc-variants
    python3 tools/output_digest.py --workload forward-variants
    python3 tools/output_digest.py --workload expr-variants

Runs each pipeline of ``perfbench/workloads.py`` once at the given benchmark
seed and size divisor and prints one JSON object: for every workload, the
digest of each array and number the pipeline's layer calls return (the PDE
field with its control and stop mask, path states and increments, the
change-of-measure log densities, the backward pass's Y, reflections and
per-node mean |Z|, the forward estimates) and of the run values, counters
and gate messages.  The package calls are recorded by wrapping module
attributes from outside for the length of the run; neither the package nor
the benchmark is edited.

The ``pde-variants`` entry, part of ``--workload all``, covers PDE solves the
pipelines never reach: fixed small grids under the dominating generator, a
truncation, a correlated sigma and a sigma that reads the state but not t,
built once per solve.  For each it digests the grid's nt, the scheme
metadata and the field's values, control and stop mask; seed and size
divisor do not apply.  The ``mc-variants`` entry does the same for backward passes the pipelines never
reach: fixed small path batches solved under a truncation, under the
dominating generator, with an obstacle that reads the state and with a
constant correlated sigma, digesting Y, the reflections, y0 and its
per-path samples.  The ``forward-variants`` entry solves a problem whose
drift and running reward read the state and runs ``evaluate`` and
``martingale_check`` on the solved field, so the forward loops gather
rows from a control table with one row per state, which no pipeline does.
The ``expr-variants`` entry parses a fixed list of expressions that uses
every function, every number form, every position of a unary minus, a
parameter and eight nested calls, evaluates each on a fixed
1001-point ``x1`` with one ``t`` per row, and digests each value and the
sorted names of its ``variables``, so the evaluator's bits are checked
apart from any solver.

Two trees compute the same bits exactly when their outputs diff clean, so
running this on a copy of the parent commit and on a change is the evidence
for a bit-identical refactor; running it twice on one tree checks
determinism.  ``--against REV`` does the first in one call: it checks REV
out into a temporary git worktree, runs REV's copy of this tool there with
the same workload, seed and size, removes the worktree, and prints instead
of the report one line per key that moved or that only one side has; the
exit code is 1 when any line is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from ctrlstop import (  # noqa: E402
    parse_expression,
    RegressionBasis,
    TimeGrid,
    TruncationIndex,
    build_builtin,
    evaluate,
    make_grid,
    martingale_check,
    simulate_uncontrolled,
    solve,
    solve_rbsde,
)

PDE_VARIANTS = "pde-variants"
MC_VARIANTS = "mc-variants"
FORWARD_VARIANTS = "forward-variants"
EXPR_VARIANTS = "expr-variants"

# (module, attribute): the calls whose results are digested.  The workloads
# module's own bindings cover the pipeline's layer calls; the rest are the
# calls those layers make on the way (forward paths and change of measure).
# extract_policy hands back the field solve returned, so it is not recorded.
RECORDED = (
    ("workloads", "solve"),
    ("workloads", "simulate_uncontrolled"),
    ("workloads", "solve_rbsde"),
    ("workloads", "evaluate"),
    ("workloads", "martingale_check"),
    ("ctrlstop.strategy", "girsanov_log_batch"),
)


def _sha(kind: str, shape, payload: bytes) -> str:
    h = hashlib.sha256(f"{kind}{tuple(shape)}".encode())
    h.update(payload)
    return h.hexdigest()


def digest_tree(prefix: str, obj, out: dict) -> None:
    """Digest every array and number reachable through dataclasses, dicts and sequences."""
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        out[prefix] = _sha(arr.dtype.str, arr.shape, arr.tobytes())
    elif isinstance(obj, (bool, np.bool_)):
        out[prefix] = _sha("bool", (), bytes([bool(obj)]))
    elif isinstance(obj, (int, np.integer)):
        out[prefix] = _sha("int", (), int(obj).to_bytes(16, "little", signed=True))
    elif isinstance(obj, (float, np.floating)):
        out[prefix] = _sha("float", (), np.float64(obj).tobytes())
    elif isinstance(obj, str):
        out[prefix] = _sha("str", (), obj.encode())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for field in dataclasses.fields(obj):
            digest_tree(f"{prefix}.{field.name}", getattr(obj, field.name), out)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            digest_tree(f"{prefix}.{key}", value, out)
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            digest_tree(f"{prefix}[{i}]", value, out)


def run_workload(name: str, seed: int, shrink: int) -> dict:
    """Run one pipeline with every RECORDED call wrapped; digest what it returned."""
    sizes = workloads.scaled(name, shrink)
    spec, grid = workloads.setup(name, sizes)
    seeds = workloads.path_seeds(name, seed)
    calls = []
    originals = []

    def recorder(label, fn):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((label, result))
            return result

        return wrapped

    try:
        for module_name, attr in RECORDED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, recorder(attr, original))
        out = workloads.PIPELINES[name](spec, grid, seeds, sizes, spans.StageClock(), spec)
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)

    digests = {}
    seen = {}
    for label, result in calls:
        i = seen[label] = seen.get(label, -1) + 1
        digest_tree(f"{label}[{i}]", result, digests)
    digest_tree("run.values", out.values, digests)
    digest_tree("run.counts", out.counts, digests)
    digest_tree("run.failures", out.failures, digests)
    return dict(sorted(digests.items()))


def _drift_spec(name: str, sigma: tuple[str, ...], C_sigma_inv: float):
    """Drift a in {-1, 0, 1}^d, reward |x| at T and a floor of 0.8, under ``sigma`` (d = 1 or 2)."""
    d = 1 if len(sigma) == 1 else 2
    return build_builtin(
        "custom",
        {
            "name": name,
            "dim": d,
            "T": 1.0,
            "sigma": sigma,
            "f": ("a1", "a2")[:d],
            "gamma": "0",
            "g": "sqrt(x1*x1+x2*x2)" if d == 2 else "abs(x1)",
            "h": "0.8",
            "controls": [list(a) for a in itertools.product((-1.0, 0.0, 1.0), repeat=d)],
            "growth": {"C_f": 1.5, "C_sigma_inv": C_sigma_inv, "C_poly": 10.0, "p": 1.0},
            "lo": -4.0,
            "hi": 4.0,
        },
    )


def _pde_variants():
    """(key, spec, nx, trunc, generator) of each fixed PDE solve."""
    correlated = _drift_spec("correlated-d2", ("1", "0.3", "0.3", "1"), 1.5)
    # reads x but not t, so the sweep builds its diffusion once
    state_sigma = _drift_spec("state-sigma-d1", ("0.3+0.1*tanh(x1)",), 5.0)
    decaying = build_builtin("decaying_obstacle", {"beta": 2.0})
    drift_1d = build_builtin("controlled_drift_abs", {"h_floor": 0.8})
    drift_2d = build_builtin("controlled_drift_abs", {"d": 2, "h_floor": 0.8})
    return (
        ("decaying_obstacle-beta2-nx81-dominating", decaying, 81, None, "dominating"),
        ("controlled_drift_abs-nx81-trunc22", drift_1d, 81, TruncationIndex(2, 2), "hstar"),
        ("controlled_drift_abs-d2-nx41-dominating", drift_2d, 41, None, "dominating"),
        ("correlated-d2-nx41", correlated, 41, None, "hstar"),
        ("state-sigma-d1-nx81", state_sigma, 81, None, "hstar"),
    )


def run_pde_variants() -> dict:
    """Solve each PDE variant on its own make_grid grid; digest what the solve returns."""
    digests = {}
    for key, spec, nx, trunc, generator in _pde_variants():
        field = solve(spec, make_grid(spec, nx, generator=generator), trunc=trunc, generator=generator)
        parts = {
            "nt": field.grid.nt,
            "scheme_meta": field.scheme_meta,
            "values": field.values,
            "control": field.control,
            "stop_mask": field.stop_mask,
        }
        digest_tree(key, parts, digests)
    return dict(sorted(digests.items()))


def _mc_variants():
    """(key, spec, x0, basis, trunc, generator) of each fixed backward pass.

    x0 = 1.5 puts about a third of the paths beyond the radius-2 cutoff by T,
    so the truncation moves the solve; the obstacle binds on every batch.
    The put's obstacle reads x, so its solve stores h per path; the other
    obstacles are constant floors, stored once per node.  The constant
    correlated sigma takes H*'s one solve for all rows, and its paths take
    ``sigma_apply``'s full sum.
    """
    return (
        ("controlled_drift_abs-h0.8-x1.5-local25-trunc22", build_builtin("controlled_drift_abs", {"h_floor": 0.8}),
         1.5, RegressionBasis(), TruncationIndex(2, 2), "hstar"),
        ("controlled_drift_abs-h1.2-x0-poly3-dominating", build_builtin("controlled_drift_abs", {"h_floor": 1.2}),
         0.0, RegressionBasis(kind="polynomial", degree=3), None, "dominating"),
        ("bachelier_put-x1-poly3", build_builtin("bachelier_put"),
         1.0, RegressionBasis(kind="polynomial", degree=3), None, "hstar"),
        ("constant-correlated-d2-poly3", _drift_spec("constant-correlated-d2", ("0.9", "0.3", "-0.2", "0.7"), 1.5),
         0.0, RegressionBasis(kind="polynomial", degree=3), None, "hstar"),
    )


def run_mc_variants() -> dict:
    """Solve each MC variant on its own 2000-path, 10-step batch; digest the solve's result."""
    digests = {}
    for i, (key, spec, x0, basis, trunc, generator) in enumerate(_mc_variants()):
        batch = simulate_uncontrolled(spec, 0.0, np.full(spec.dim, x0), TimeGrid(0.0, 1.0, 10), 2000, seed=50 + i)
        back = solve_rbsde(spec, batch, basis, trunc=trunc, generator=generator)
        parts = {
            "y_nodes": back.y_nodes,
            "k_increments": back.k_increments,
            "y0": back.y0,
            "y0_samples": back.y0_samples,
        }
        digest_tree(key, parts, digests)
    return dict(sorted(digests.items()))


def _state_drift_spec():
    """Drift a1 (1 + 0.2 tanh x1) and reward -0.1 a1^2 (1 + 0.2 tanh x1), a in {-1, 0, 1}, on a +-4 box."""
    scale = "(1+0.2*tanh(x1))"
    return build_builtin(
        "custom",
        {
            "name": "state-drift-d1",
            "dim": 1,
            "T": 1.0,
            "sigma": ("1",),
            "f": (f"a1*{scale}",),
            "gamma": f"-0.1*a1*a1*{scale}",
            "g": "max(abs(x1),0.8)",
            "h": "0.8",
            "controls": [[-1.0], [0.0], [1.0]],
            "growth": {"C_f": 1.5, "C_sigma_inv": 1.0, "C_poly": 10.0, "p": 1.0},
            "lo": -4.0,
            "hi": 4.0,
        },
    )


def run_forward_variants() -> dict:
    """Solve the state-drift problem at nx 81; digest the field and 3000 forward paths of each loop under it."""
    spec = _state_drift_spec()
    field = solve(spec, make_grid(spec, 81))
    grid = TimeGrid(0.0, 1.0, 20)
    parts = {
        "values": field.values,
        "control": field.control,
        "stop_mask": field.stop_mask,
        "evaluate": evaluate(spec, field, grid, [0.5], 3000, seed=60),
        "martingale_check": martingale_check(spec, field, grid, [0.5], 3000, seed=61),
    }
    digests = {}
    digest_tree("state-drift-d1-nx81", parts, digests)
    return dict(sorted(digests.items()))


# every function, the number forms 2, 0.5, .5, 7., 1.5e-2 and 2e3, a unary minus at the
# start, after * and /, after + and before "(", the parameter K, and eight nested calls
EXPRESSIONS = (
    "2*x1+0.5-.5*t+7.*x1/(1+abs(x1))",
    "1.5e-2*x1-2e3*t*t",
    "-x1*-t/-(1+x1*x1)+-K",
    "sqrt(1+x1*x1)+abs(-x1)-exp(-t*x1)",
    "sign(x1-0.25)*tanh(K*x1)",
    "pow(1+abs(x1),t)-pow(2,-x1)",
    "min(x1,K)-max(-x1,t*K)",
    "max(K-x1,0)*(1+K*(1-t))/3",
    "exp(-tanh(sqrt(1+abs(min(x1,max(t,pow(1+abs(x1),-2)))))))",
    "2*3-7./2+K",
)


def run_expr_variants() -> dict:
    """Evaluate each of EXPRESSIONS on 1001 rows of x1 in [-3, 3] and t in [0, 1]; digest the values and names."""
    env = {"x1": np.linspace(-3.0, 3.0, 1001), "t": np.linspace(0.0, 1.0, 1001), "K": 1.25}
    digests = {}
    for text in EXPRESSIONS:
        tree = parse_expression(text)
        digest_tree(text, {"value": tree(env), "variables": " ".join(sorted(tree.variables))}, digests)
    return dict(sorted(digests.items()))


# the fixed solves of --workload all beside the pipelines; seed and size divisor do not apply
VARIANTS = {
    PDE_VARIANTS: run_pde_variants,
    MC_VARIANTS: run_mc_variants,
    FORWARD_VARIANTS: run_forward_variants,
    EXPR_VARIANTS: run_expr_variants,
}


def diff_digests(a: dict, b: dict) -> list[str]:
    """Keys whose digests differ between two ``workloads`` maps, one line each.

    ``a`` and ``b`` map workload -> {key: digest}, as in the printed report.
    A line reads ``moved <workload> <key>``, ``only-a ...`` or ``only-b ...``;
    an empty list means both sides computed the same bits.
    """
    flat_a = {(w, k): v for w, keys in a.items() for k, v in keys.items()}
    flat_b = {(w, k): v for w, keys in b.items() for k, v in keys.items()}
    lines = []
    for key in sorted(flat_a.keys() | flat_b.keys()):
        if key not in flat_b:
            lines.append(f"only-a {key[0]} {key[1]}")
        elif key not in flat_a:
            lines.append(f"only-b {key[0]} {key[1]}")
        elif flat_a[key] != flat_b[key]:
            lines.append(f"moved {key[0]} {key[1]}")
    return lines


@contextlib.contextmanager
def worktree(rev: str):
    """A temporary git worktree of REV, removed on exit."""
    git = ["git", "-C", str(ROOT), "worktree"]
    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run([*git, "add", "--quiet", "--detach", str(tree), rev], check=True)
        try:
            yield tree
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)], check=True)


def _report_at(rev: str, argv: list[str]) -> dict:
    """The report of REV's copy of this tool, run in a temporary git worktree.

    Errors of git and of REV's run pass through on standard error.
    """
    with worktree(rev) as tree:
        proc = subprocess.run(
            [sys.executable, str(tree / "tools" / "output_digest.py"), *argv],
            check=True, stdout=subprocess.PIPE, text=True,
        )
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.PIPELINES, *VARIANTS))
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed (as perfbench/run.py --seed)")
    parser.add_argument("--shrink", type=int, default=1, help="divide grid and path sizes by this")
    parser.add_argument("--against", metavar="REV", help="print only the keys that differ from git revision REV")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.shrink < 1:
        parser.error("--seed must be non-negative and --shrink at least 1")
    names = [*workloads.PIPELINES, *VARIANTS] if args.workload == "all" else [args.workload]
    if args.against:
        base = _report_at(args.against, ["--workload", args.workload, "--seed", str(args.seed), "--shrink", str(args.shrink)])
    report = {
        "seed": args.seed,
        "shrink": args.shrink,
        "workloads": {
            name: VARIANTS[name]() if name in VARIANTS else run_workload(name, args.seed, args.shrink)
            for name in names
        },
    }
    if not args.against:
        print(json.dumps(report, indent=1))
        return 0
    lines = diff_digests(base["workloads"], report["workloads"])
    for line in lines:
        print(line)
    print(f"{len(lines)} keys differ from {args.against}", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
