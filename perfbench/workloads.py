"""The three benchmark workloads: problem, set-up, pipeline and correctness gate.

Every pipeline is a fixed sequence of calls into the public functions of
``ctrlstop``.  Each call runs inside ``clock(stage)``, where ``clock`` is a
``spans.StageClock`` (untraced) or ``spans.Tracer`` (traced), so stage
timings are taken from outside the package in both modes.

Workload seeds never reach the package: ``path_seeds`` turns the benchmark
seed into the integer seeds the simulations receive.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ctrlstop import (
    RegressionBasis,
    TimeGrid,
    build_builtin,
    evaluate,
    extract_policy,
    make_grid,
    martingale_check,
    simulate_uncontrolled,
    solve,
    solve_rbsde,
    validate,
)

# acceptance check 2 and check 9 budget: relative share of max(0.1, |v|)
SCHEME_BUDGET_REL = 0.015
# martingale_check mean must sit within this many standard errors of 1
MARTINGALE_SE = 3.0


def path_seeds(workload: str, seed: int, count: int = 2) -> list[int]:
    """Simulation seeds derived from the benchmark seed and the workload name."""
    words = [seed, *workload.encode()]
    return [int(s) for s in np.random.SeedSequence(words).generate_state(count)]


@dataclasses.dataclass
class Outputs:
    """What one pipeline run produced, in plain numbers."""

    values: dict = dataclasses.field(default_factory=dict)   # headline estimates
    counts: dict = dataclasses.field(default_factory=dict)   # work counters and guards
    failures: list = dataclasses.field(default_factory=list)  # correctness-gate breaches

    def require(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)


# -- problems -------------------------------------------------------------------


def _localvol_spec():
    gain = "max(1-0.5*x1-0.5*x2,0)"
    return build_builtin(
        "custom",
        {
            "name": "policy-2d-localvol",
            "dim": 2,
            "T": 1.0,
            "sigma": ("0.8+0.2*tanh(x1)", "0", "0", "0.8+0.2*tanh(x2+t)"),
            "f": ("a1", "a2"),
            "gamma": "-0.2*(a1*a1+a2*a2)",
            "g": gain,
            "h": f"{gain}*(1+0.5*(1-t))",
            "controls": [[a1, a2] for a1 in (-1.0, 0.0, 1.0) for a2 in (-1.0, 0.0, 1.0)],
            "growth": {"C_f": 1.5, "C_sigma_inv": 1.0 / 0.6, "C_poly": 10.0, "p": 1.0},
            "lo": -4.0,
            "hi": 4.0,
        },
    )


def build_spec(workload: str):
    if workload == "triangle-1d":
        return build_builtin("controlled_drift_abs", {"kappa": 1.0, "d": 1})
    if workload == "rbsde-5d":
        return build_builtin("controlled_drift_abs", {"kappa": 1.0, "d": 5})
    if workload == "policy-2d-localvol":
        return _localvol_spec()
    raise ValueError(f"unknown workload {workload!r}")


# full sizes; ``scaled`` shrinks them for the harness smoke test
SIZES = {
    "triangle-1d": {"nx": 401, "steps": 50, "paths": 100_000, "degree": 6},
    "rbsde-5d": {"steps": 10, "paths": 4000, "degree": 3},
    "policy-2d-localvol": {"nx": 81, "steps": 50, "paths": 100_000, "martingale_paths": 50_000},
}

X0 = {
    "triangle-1d": (0.5,),
    "rbsde-5d": (0.5,) * 5,
    "policy-2d-localvol": (0.8, 0.8),
}


def scaled(workload: str, shrink: int) -> dict:
    """SIZES with grids and path counts divided by ``shrink`` (for smoke runs)."""
    out = dict(SIZES[workload])
    for key in ("paths", "martingale_paths"):
        if key in out:
            out[key] = max(500, out[key] // shrink)
    if "nx" in out:
        out["nx"] = max(21, (out["nx"] - 1) // shrink + 1)
    return out


def setup(workload: str, sizes: dict | None = None):
    """Problem, growth validation and the solver grid: the timed set-up."""
    sizes = sizes or SIZES[workload]
    spec = build_spec(workload)
    report = validate(spec)
    if not report.passed:
        raise RuntimeError(f"{workload}: spec fails validation\n{report.render()}")
    if "nx" in sizes:
        grid = make_grid(spec, nx=sizes["nx"])
    else:
        grid = TimeGrid(0.0, spec.horizon_T, sizes["steps"])
    return spec, grid


# -- correctness checks shared by the pipelines ----------------------------------


def _check_field(out: Outputs, spec, field):
    grid = field.grid
    nodes = grid.nodes()
    values = field.values.reshape(grid.nt + 1, -1)
    out.require(bool(np.all(np.isfinite(values))), "PDE field has non-finite values")
    out.require(
        bool(np.array_equal(values[grid.nt], spec.g(nodes))),
        "PDE terminal slice is not exactly g",
    )
    floor = min(
        float(np.min(values[i] - spec.h(float(t), nodes))) for i, t in enumerate(grid.times)
    )
    out.require(floor >= 0.0, f"PDE field dips below the obstacle: min(v-h)={floor:.3e}")


def _check_backward(out: Outputs, spec, batch, back):
    out.require(
        math.isfinite(back.y0) and math.isfinite(back.se_y0) and bool(np.all(np.isfinite(back.y_nodes))),
        "MC backward pass has non-finite values",
    )
    out.require(
        bool(np.array_equal(back.y_nodes[:, -1], spec.g(batch.states[:, -1]))),
        "MC terminal values are not exactly g",
    )
    floor = float(np.min(back.y_nodes - back.obstacle_nodes))
    out.require(floor >= 0.0, f"MC values dip below the obstacle: min(y-h)={floor:.3e}")


def _pde_counts(out: Outputs, field, policy):
    out.counts["pde.nt"] = field.grid.nt
    out.counts["pde.nodes"] = int(np.prod(field.grid.shape))
    out.counts["pde.cfl_ratio"] = float(field.scheme_meta["cfl_ratio"])
    # the final slice stops by convention; count the nodes the rule chose
    out.counts["pde.stop_nodes"] = int(policy.stop_mask[:-1].sum())


def _mc_counts(out: Outputs, batch, back):
    diag = back.diagnostics
    out.counts["mc.path_steps"] = batch.count * batch.grid.steps
    out.counts["mc.max_cond"] = float(np.max(diag["condition_numbers"]))
    out.counts["mc.min_cell_count"] = int(np.min(diag["min_cell_count"]))
    out.counts["mc.reflections"] = int(np.count_nonzero(back.k_increments > 0))


def _finite(out: Outputs, **estimates):
    for name, value in estimates.items():
        out.require(math.isfinite(value), f"{name} is not finite ({value!r})")


def _agree(out: Outputs, label, a, b, se, budget):
    """Acceptance check 2's pairwise test: |a - b| <= max(2 se, budget)."""
    tol = max(2.0 * se, budget)
    gap = abs(a - b)
    out.require(gap <= tol, f"{label} gap {gap:.5f} exceeds {tol:.5f}")


# -- pipelines ---------------------------------------------------------------------


def triangle_1d(spec, grid, seeds, sizes, clock, gate_spec) -> Outputs:
    """Acceptance check 2 end to end: PDE value and policy, MC value, forward check."""
    out = Outputs()
    x0 = np.array(X0["triangle-1d"])
    tg = TimeGrid(0.0, spec.horizon_T, sizes["steps"])
    with clock("pde.solve"):
        field = solve(spec, grid)
    with clock("pde.extract"):
        policy = extract_policy(spec, field)
    with clock("paths.simulate"):
        batch = simulate_uncontrolled(spec, 0.0, x0, tg, sizes["paths"], seed=seeds[0])
    with clock("mc.backward"):
        back = solve_rbsde(spec, batch, RegressionBasis(kind="polynomial", degree=sizes["degree"]))
    with clock("strategy.evaluate"):
        est = evaluate(spec, policy, tg, x0, sizes["paths"], seed=seeds[1])

    v_pde = field.at(0.0, x0)
    out.values = {"v_pde": v_pde, "y0": back.y0, "forward": est.mean}
    _pde_counts(out, field, policy)
    _mc_counts(out, batch, back)
    out.counts["paths.path_steps"] = batch.count * tg.steps
    out.counts["strategy.stopped_early"] = est.breakdown.fraction_stopped_early

    _finite(out, v_pde=v_pde, y0=back.y0, forward=est.mean, forward_se=est.stderr)
    _check_field(out, gate_spec, field)
    _check_backward(out, gate_spec, batch, back)
    # Across path seeds y0 scatters by about 0.03 while se_y0 reports about
    # 3e-4, so the two pairs with y0 fail on about a quarter of the seeds.
    budget = SCHEME_BUDGET_REL * max(0.1, abs(v_pde))
    _agree(out, "pde-mc", v_pde, back.y0, back.se_y0, budget)
    _agree(out, "pde-forward", v_pde, est.mean, est.stderr, budget)
    _agree(out, "mc-forward", back.y0, est.mean, math.hypot(back.se_y0, est.stderr), budget)
    return out


def rbsde_5d(spec, grid, seeds, sizes, clock, gate_spec) -> Outputs:
    """Regression MC at d=5 with 3^5 controls: the Hamiltonian-bound pass."""
    out = Outputs()
    x0 = np.array(X0["rbsde-5d"])
    with clock("paths.simulate"):
        batch = simulate_uncontrolled(spec, 0.0, x0, grid, sizes["paths"], seed=seeds[0])
    with clock("mc.backward"):
        back = solve_rbsde(spec, batch, RegressionBasis(kind="polynomial", degree=sizes["degree"]))

    out.values = {"y0": back.y0}
    _mc_counts(out, batch, back)
    out.counts["paths.path_steps"] = batch.count * grid.steps
    _finite(out, y0=back.y0)
    _check_backward(out, gate_spec, batch, back)
    return out


def policy_2d_localvol(spec, grid, seeds, sizes, clock, gate_spec) -> Outputs:
    """State- and time-dependent sigma at d=2 with a binding obstacle."""
    out = Outputs()
    x0 = np.array(X0["policy-2d-localvol"])
    tg = TimeGrid(0.0, spec.horizon_T, sizes["steps"])
    with clock("pde.solve"):
        field = solve(spec, grid)
    with clock("pde.extract"):
        policy = extract_policy(spec, field)
    with clock("strategy.evaluate"):
        est = evaluate(spec, policy, tg, x0, sizes["paths"], seed=seeds[0])
    with clock("strategy.martingale"):
        mart = martingale_check(spec, policy, tg, x0, sizes["martingale_paths"], seed=seeds[1])

    v_pde = field.at(0.0, x0)
    out.values = {"v_pde": v_pde, "forward": est.mean, "martingale": mart.mean}
    _pde_counts(out, field, policy)
    out.counts["strategy.stopped_early"] = est.breakdown.fraction_stopped_early

    _finite(out, v_pde=v_pde, forward=est.mean, forward_se=est.stderr, martingale=mart.mean)
    _check_field(out, gate_spec, field)
    # acceptance check 9's field budget: 2 SE + 1.5% of max(0.1, |v|)
    budget = 2.0 * est.stderr + SCHEME_BUDGET_REL * max(0.1, abs(v_pde))
    gap = abs(est.mean - v_pde)
    out.require(gap <= budget, f"field-forward gap {gap:.5f} exceeds {budget:.5f}")
    z = abs(mart.mean - 1.0) / mart.stderr if mart.stderr > 0 else math.inf
    out.require(z <= MARTINGALE_SE, f"martingale mean {mart.mean:.5f} is {z:.2f} SE from 1")
    return out


PIPELINES = {
    "triangle-1d": triangle_1d,
    "rbsde-5d": rbsde_5d,
    "policy-2d-localvol": policy_2d_localvol,
}
