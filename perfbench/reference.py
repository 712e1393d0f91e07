#!/usr/bin/env python3
"""Compute each workload's reference value and write perfbench/references.json.

    python3 perfbench/reference.py            # about a minute on two cores

triangle-1d and policy-2d-localvol: the PDE value at x0 on three refined
grids, extrapolated with the convergence order the three values show.
rbsde-5d: the d=5 PDE is out of reach, so the reference is the forward
value of the push-away policy a_j = kappa sign(x_j) on the workload's own
time grid.  It is a lower bound of the value; E|x0 + B_T| + kappa sqrt(d) T
bounds the value from above and is recorded beside it.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

from ctrlstop import TimeGrid, evaluate, make_grid, solve  # noqa: E402

import workloads  # noqa: E402

GRIDS = {"triangle-1d": (401, 801, 1601), "policy-2d-localvol": (81, 121, 161)}
REFERENCE_PATHS = 1_000_000
CHUNK = 100_000
REFERENCE_SEED = 20_050_678


def extrapolate(widths, values):
    """Limit and order p of v(h) = v* + C h^p through three (h, v) points."""
    (h1, h2, h3), (v1, v2, v3) = widths, values

    def mismatch(p):
        return (v1 - v2) / (v2 - v3) - (h1**p - h2**p) / (h2**p - h3**p)

    lo, hi = 0.25, 4.0
    if mismatch(lo) * mismatch(hi) > 0:
        raise RuntimeError(f"no convergence order in [{lo}, {hi}] fits {values}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mismatch(lo) * mismatch(mid) <= 0:
            hi = mid
        else:
            lo = mid
    p = 0.5 * (lo + hi)
    c = (v2 - v3) / (h2**p - h3**p)
    return v3 - c * h3**p, p


def pde_reference(workload: str) -> dict:
    spec = workloads.build_spec(workload)
    x0 = np.array(workloads.X0[workload])
    widths, values, steps = [], [], []
    for nx in GRIDS[workload]:
        grid = make_grid(spec, nx=nx)
        values.append(solve(spec, grid).at(0.0, x0))
        widths.append(float(grid.dxs[0]))
        steps.append(grid.nt)
        print(f"{workload}: nx={nx} nt={grid.nt} v={values[-1]!r}", file=sys.stderr)
    value, order = extrapolate(widths, values)
    return {
        "value": value,
        "method": (
            f"explicit PDE solve at nx={list(GRIDS[workload])}, extrapolated to dx=0 "
            f"with the fitted order p={order:.3f} of v(dx) = v* + C dx^p"
        ),
        "grid_values": dict(zip(map(str, GRIDS[workload]), values)),
        "time_steps": steps,
    }


class PushAway:
    """a_j = kappa sign(x_j), never stops early."""

    def __init__(self, spec):
        self.points = spec.controls.points
        self.powers = 3 ** np.arange(spec.dim - 1, -1, -1)

    def control_indices(self, t, X):
        # controls enumerate {-kappa, 0, kappa}^d with the first axis slowest
        idx = (np.sign(X).astype(np.int64) + 1) @ self.powers
        assert np.array_equal(self.points[idx], np.max(self.points) * np.sign(X))
        return idx

    def stop_at(self, t, X):
        return np.zeros(X.shape[0], dtype=bool)


def rbsde_reference() -> dict:
    workload = "rbsde-5d"
    spec = workloads.build_spec(workload)
    x0 = np.array(workloads.X0[workload])
    grid = TimeGrid(0.0, spec.horizon_T, workloads.SIZES[workload]["steps"])
    seeds = np.random.SeedSequence(REFERENCE_SEED).generate_state(REFERENCE_PATHS // CHUNK)
    means, variances = [], []
    for seed in seeds:
        est = evaluate(spec, PushAway(spec), grid, x0, CHUNK, seed=int(seed))
        means.append(est.mean)
        variances.append(est.stderr**2)
    value = float(np.mean(means))
    se = math.sqrt(float(np.sum(variances))) / len(means)

    rng = np.random.default_rng(REFERENCE_SEED)
    endpoint = x0 + rng.standard_normal((REFERENCE_PATHS, spec.dim)) * math.sqrt(spec.horizon_T)
    kappa = float(np.max(spec.controls.points))
    upper = float(np.mean(np.linalg.norm(endpoint, axis=1))) + kappa * math.sqrt(spec.dim) * spec.horizon_T
    print(f"{workload}: push-away value {value!r} +- {se:.2g}, upper bound {upper:.4f}", file=sys.stderr)
    return {
        "value": value,
        "method": (
            f"evaluate of the push-away policy a_j = kappa sign(x_j) on TimeGrid(0, 1, {grid.steps}) "
            f"with {REFERENCE_PATHS} paths; a lower bound of the value"
        ),
        "stderr": se,
        "upper_bound": upper,
        "upper_bound_method": "E|x0 + B_T| + kappa sqrt(d) T, by Monte Carlo",
    }


def main() -> int:
    out = {
        "triangle-1d": pde_reference("triangle-1d"),
        "policy-2d-localvol": pde_reference("policy-2d-localvol"),
        "rbsde-5d": rbsde_reference(),
    }
    with open(BENCH_DIR / "references.json", "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
