"""Release gate: eleven numbered checks over both solvers, 1 to 12 without 10.

Each check is a plain function returning (passed, detail); ``run_all``
times them, never lets one abort the rest, and the CLI ``verify``
subcommand plus the test suite render the same results.  Expensive value
fields are shared between checks through a small cache.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import mc, pde, strategy
from .hamilton import sup_hamiltonian_batch
from .model import build_builtin, dominating_generator_batch
from .paths import TimeGrid, _stderr, simulate_uncontrolled

__all__ = ["CheckResult", "run_all", "render", "CLOSED_FORM_ATM_PUT", "CHECK_IDS"]

# at-the-money Gaussian put, zero rate: sigma sqrt(T) / sqrt(2 pi)
CLOSED_FORM_ATM_PUT = 0.0797884560802865


@dataclass(frozen=True)
class CheckResult:
    cid: int
    name: str
    passed: bool
    detail: str
    seconds: float


class _Shared:
    """Lazily built fields reused across checks."""

    def __init__(self):
        self._store = {}

    def get(self, key, builder):
        if key not in self._store:
            self._store[key] = builder()
        return self._store[key]


# -- problem builders ----------------------------------------------------------


def _drift_reward_spec():
    """Two-signed driver: H*(t,x,z) = |z| + x, so both cutoff sides bite."""
    return build_builtin(
        "custom",
        {
            "name": "drift-reward",
            "dim": 1,
            "T": 1.0,
            "sigma": ("1",),
            "f": ("a1",),
            "gamma": "x1",
            "g": "abs(x1)",
            "h": "-10",
            "controls": [[-1.0], [0.0], [1.0]],
            "growth": {"C_f": 1.0, "C_sigma_inv": 1.0, "C_poly": 10.0, "p": 1.0},
            "lo": -4.0,
            "hi": 4.0,
        },
    )


def _constant_drift_spec(theta: float):
    return build_builtin(
        "custom",
        {
            "name": "constant-drift",
            "dim": 1,
            "T": 1.0,
            "sigma": ("1",),
            "f": (repr(float(theta)),),
            "gamma": "0",
            "g": "0",
            "h": "-1000000",
            "controls": [[0.0]],
            "growth": {"C_f": abs(float(theta)), "C_sigma_inv": 1.0, "C_poly": 1e6, "p": 1.0},
            "lo": -6.0,
            "hi": 6.0,
        },
    )


PUT_PAYOFF = "max(1-x1,0)"


def _put_spec(g: str, h: str):
    """The put's diffusion, sigma 0.2 on [-3, 5], with terminal reward g and obstacle h."""
    return build_builtin(
        "custom",
        {
            "name": "put",
            "dim": 1,
            "T": 1.0,
            "sigma": ("0.2",),
            "f": ("0",),
            "gamma": "0",
            "g": g,
            "h": h,
            "controls": [[0.0]],
            "growth": {"C_f": 0.0, "C_sigma_inv": 5.0, "C_poly": 1e9, "p": 1.0},
            "lo": -3.0,
            "hi": 5.0,
        },
    )


def _solved_field(shared, name, nx):
    """(spec, field) of builtin ``name`` on its own nx grid; the field is also its strategy."""

    def build():
        spec = build_builtin(name)
        return spec, pde.solve(spec, pde.make_grid(spec, nx))

    return shared.get((name, nx), build)


def _decaying_obstacle_run(shared):
    def build():
        spec = build_builtin("decaying_obstacle", {"beta": 2.0})
        batch = simulate_uncontrolled(spec, 0.0, np.array([1.0]), TimeGrid(0.0, 1.0, 25), 20_000, seed=31)
        return spec, batch, mc.solve_rbsde(spec, batch, mc.RegressionBasis(cells_per_axis=25))

    return shared.get("decaying_obstacle", build)


def _sample_tx(spec, samples, seed):
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, spec.horizon_T, samples)
    X = rng.uniform(spec.domain.lo, spec.domain.hi, (samples, spec.dim))
    scale = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), samples))
    Z = rng.standard_normal((samples, spec.dim)) * scale[:, None]
    Z2 = rng.standard_normal((samples, spec.dim)) * scale[:, None]
    return ts, X, Z, Z2


# -- the eleven checks ---------------------------------------------------------


def _check_closed_form(shared):
    spec, field = _solved_field(shared, "bachelier_put", 401)
    v = field.at(0.0, np.array([1.0]))
    rel = abs(v - CLOSED_FORM_ATM_PUT) / CLOSED_FORM_ATM_PUT
    return rel <= 0.01, f"v(0,1)={v:.10f} rel.err={rel:.2e} (tol 1e-2)"


def _check_method_triangle(shared):
    spec, field = _solved_field(shared, "controlled_drift_abs", 401)
    x0 = np.array([0.5])
    v_pde = field.at(0.0, x0)

    tg = TimeGrid(0.0, 1.0, 50)
    batch = simulate_uncontrolled(spec, 0.0, x0, tg, 100_000, seed=11)
    basis = mc.RegressionBasis(kind="polynomial", degree=6)
    back = mc.solve_rbsde(spec, batch, basis)

    est = strategy.evaluate(spec, field, tg, x0, 100_000, seed=12)

    budget = strategy.SCHEME_BUDGET_REL * max(0.1, abs(v_pde))
    pairs = [
        ("pde-mc", v_pde, back.y0, back.se_y0),
        ("pde-forward", v_pde, est.mean, est.stderr),
        ("mc-forward", back.y0, est.mean, math.hypot(back.se_y0, est.stderr)),
    ]
    worst = []
    ok = True
    for name, a, b, se in pairs:
        tol = max(2.0 * se, budget)
        gap = abs(a - b)
        ok = ok and gap <= tol
        worst.append(f"{name}:{gap:.4f}<={tol:.4f}")
    detail = f"pde={v_pde:.4f} mc={back.y0:.4f}±{back.se_y0:.4f} fwd={est.mean:.4f}±{est.stderr:.4f} " + " ".join(worst)
    return ok, detail


def _check_truncation_ladders(shared):
    spec = _drift_reward_spec()
    grid = pde.make_grid(spec, 161)
    report = pde.ladder(spec, grid, n_list=(1, 2, 4), m_list=(1, 2, 4))
    pde_exhaust = report.exhaustion_gap == 0.0

    tg = TimeGrid(0.0, 1.0, 25)
    batch = simulate_uncontrolled(spec, 0.0, np.array([0.0]), tg, 20_000, seed=21)
    basis = mc.RegressionBasis(cells_per_axis=25)
    mrep = mc.truncation_ladder_mc(spec, batch, basis, n_list=(1, 2, 4), m_list=(1, 2, 4))
    mc_exhaust = mrep.exhaustion_gap == 0.0

    ok = report.monotone and pde_exhaust and mrep.passed and mc_exhaust
    detail = (
        f"pde viol n={report.violation_n:.1e} m={report.violation_m:.1e} exhaust_bitwise={pde_exhaust}; "
        f"mc worst z={min((c.mean_diff / c.se if c.se > 0 else math.inf) for c in mrep.comparisons):.2f} "
        f"exhaust_bitwise={mc_exhaust}"
    )
    return ok, detail


def _check_complementarity(shared):
    spec, _, back = _decaying_obstacle_run(shared)
    residual = mc.skorokhod_residual(back)
    reflected = int(np.sum(back.k_increments > 0))

    grid = pde.make_grid(spec, 201)
    field = pde.solve(spec, grid)
    nodes = grid.nodes()
    h_all = np.stack([spec.h(float(t), nodes).reshape(grid.shape) for t in grid.times[:-1]])
    binding = field.stop_mask[:-1]
    clipped = int(binding.sum())
    exact_clip = bool(np.array_equal(field.values[:-1][binding], h_all[binding]))

    ok = residual == 0.0 and reflected > 0 and clipped > 0 and exact_clip
    detail = (
        f"mc residual={residual!r} reflections={reflected}; "
        f"pde clipped nodes={clipped} value==obstacle bitwise={exact_clip}"
    )
    return ok, detail


def _check_obstacle_terminal(shared):
    msgs = []
    ok = True
    for name, params in (
        ("bachelier_put", None),
        ("controlled_drift_abs", None),
        ("decaying_obstacle", {"beta": 2.0}),
    ):
        spec = build_builtin(name, params)
        grid = pde.make_grid(spec, 161)
        field = pde.solve(spec, grid)
        nodes = grid.nodes()
        term_exact = bool(
            np.array_equal(field.values[grid.nt].ravel(), spec.g(nodes))
        )
        floor = math.inf
        for i, t in enumerate(grid.times):
            floor = min(floor, float(np.min(field.values[i].ravel() - spec.h(float(t), nodes))))
        ok = ok and term_exact and floor >= 0.0
        msgs.append(f"{name}: terminal_bitwise={term_exact} min(v-h)={floor:.1e}")

    spec, batch, back = _decaying_obstacle_run(shared)
    term_mc = bool(np.array_equal(back.y_nodes[:, -1], spec.g(batch.states[:, -1])))
    floor_mc = float(np.min(back.y_nodes - back.obstacle_nodes))
    ok = ok and term_mc and floor_mc >= 0.0
    msgs.append(f"mc: terminal_bitwise={term_mc} min(y-h)={floor_mc:.1e}")
    return ok, "; ".join(msgs)


def _check_lipschitz(shared):
    worst = -math.inf
    total_viol = 0
    for name in ("bachelier_put", "controlled_drift_abs", "decaying_obstacle"):
        spec = build_builtin(name)
        ts, X, Z, Z2 = _sample_tx(spec, 10_000, seed=60)
        C = spec.growth.C_f * spec.growth.C_sigma_inv
        lhs = np.abs(sup_hamiltonian_batch(spec, ts, X, Z) - sup_hamiltonian_batch(spec, ts, X, Z2))
        rhs = C * (1.0 + np.linalg.norm(X, axis=1)) * np.linalg.norm(Z - Z2, axis=1)
        slack = rhs * 1e-12 + 1e-15
        total_viol += int(np.sum(lhs > rhs + slack))
        margin = lhs - rhs
        worst = max(worst, float(np.max(margin)))
    return total_viol == 0, f"violations={total_viol} worst lhs-rhs={worst:.1e}"


def _check_domination(shared):
    # (a) sampled: |H*| <= phi
    viol = 0
    for name in ("bachelier_put", "controlled_drift_abs", "decaying_obstacle"):
        spec = build_builtin(name)
        ts, X, Z, _ = _sample_tx(spec, 10_000, seed=70)
        lhs = np.abs(sup_hamiltonian_batch(spec, ts, X, Z))
        phi = dominating_generator_batch(spec, ts, X, Z)
        viol += int(np.sum(lhs > phi * (1 + 1e-12) + 1e-15))

    # (b) same grid, generator swapped: the majorant solve dominates pointwise
    gaps = []
    for name, nx in (("bachelier_put", 201), ("controlled_drift_abs", 161)):
        spec = build_builtin(name)
        grid = pde.make_grid(spec, nx, generator="dominating")
        v_h = pde.solve(spec, grid, generator="hstar")
        v_phi = pde.solve(spec, grid, generator="dominating")
        gaps.append(float(np.min(v_phi.values - v_h.values)))
    pde_ok = all(gap >= -1e-10 for gap in gaps)

    # (c) paired backward runs on one batch
    spec = build_builtin("controlled_drift_abs")
    tg = TimeGrid(0.0, 1.0, 25)
    batch = simulate_uncontrolled(spec, 0.0, np.array([0.5]), tg, 20_000, seed=71)
    basis = mc.RegressionBasis(cells_per_axis=25)
    run_h = mc.solve_rbsde(spec, batch, basis)
    run_phi = mc.solve_rbsde(spec, batch, basis, generator="dominating")
    diff = run_phi.y0_samples - run_h.y0_samples
    se = _stderr(diff)
    mc_ok = float(np.mean(diff)) >= -2.0 * se

    ok = viol == 0 and pde_ok and mc_ok
    detail = (
        f"sampled violations={viol}; pde min(v_phi-v)={min(gaps):.1e}; "
        f"mc y0 gap={float(np.mean(diff)):.3f}±{se:.3f}"
    )
    return ok, detail


def _check_change_of_measure(shared):
    tg = TimeGrid(0.0, 1.0, 50)

    spec0 = build_builtin("bachelier_put")
    zero = strategy.martingale_check(spec0, strategy.ConstantPolicy(0), tg, np.array([1.0]), 100_000, seed=81)
    zero_ok = zero.mean == 1.0 and zero.stderr == 0.0 and zero.q_moment == 1.0

    theta = 0.5
    spec_c = _constant_drift_spec(theta)
    const = strategy.martingale_check(spec_c, strategy.ConstantPolicy(0), tg, np.array([0.0]), 100_000, seed=82)
    q = strategy.MOMENT_Q
    oracle = math.exp(q * (q - 1.0) * theta**2 * 1.0 / 2.0)
    const_ok = abs(const.mean - 1.0) <= 3.0 * const.stderr
    moment_ok = abs(const.q_moment - oracle) <= 0.05 * oracle

    spec_f, field_f = _solved_field(shared, "controlled_drift_abs", 201)
    fb = strategy.martingale_check(spec_f, field_f, tg, np.array([0.5]), 100_000, seed=83)
    fb_ok = abs(fb.mean - 1.0) <= 3.0 * fb.stderr

    ok = zero_ok and const_ok and moment_ok and fb_ok
    detail = (
        f"zero drift M==1:{zero_ok}; const mean={const.mean:.4f}±{const.stderr:.4f} "
        f"q-moment={const.q_moment:.4f} (oracle {oracle:.4f}); feedback mean={fb.mean:.4f}±{fb.stderr:.4f}"
    )
    return ok, detail


def _check_optimality(shared):
    tg = TimeGrid(0.0, 1.0, 50)

    spec_c, field_c = _solved_field(shared, "controlled_drift_abs", 401)
    rep_c = strategy.optimality_gap(spec_c, field_c, tg, np.array([0.5]), 100_000, seed=91)
    zero_row = next(r for r in rep_c.rows if r.name == "constant control (0.0)")
    strict = zero_row.gap < -3.0 * zero_row.se_combined

    spec_b, field_b = _solved_field(shared, "bachelier_put", 401)
    rep_b = strategy.optimality_gap(spec_b, field_b, tg, np.array([1.0]), 100_000, seed=92)
    hold = rep_b.optimal.breakdown.fraction_stopped_early == 0.0

    ok = rep_c.passed and strict and rep_b.passed and hold
    detail = (
        f"controlled: field gap {rep_c.field_gap:.4f}<={rep_c.field_budget:.4f}, "
        f"worst challenger gap={max(r.gap for r in rep_c.rows):.4f}, zero-control z={zero_row.gap / zero_row.se_combined:.1f}; "
        f"put: field gap {rep_b.field_gap:.4f}<={rep_b.field_budget:.4f}, stopped early={rep_b.optimal.breakdown.fraction_stopped_early}"
    )
    return ok, detail


def _check_comparison(shared):
    """The put's value lies below the values for g + 0.1 with h + 0.1 and for
    h + 0.05; with the obstacle out of play, g + 0.5 adds 0.5.  One grid."""
    put, free = PUT_PAYOFF, "-1000000000"
    grid = pde.make_grid(_put_spec(put, put), 201)

    def values(g, h):
        return pde.solve(_put_spec(g, h), grid).values

    base = values(put, put)
    above = ((put + "+0.1", put + "+0.1"), (put, put + "+0.05"))
    violation = max(float(np.max(base - values(g, h))) for g, h in above)
    shift_err = float(np.max(np.abs(values(put + "+0.5", free) - (values(put, free) + 0.5))))

    ok = violation <= 1e-10 and shift_err <= 1e-12
    return ok, f"ordering violation={violation:.1e}; shift error={shift_err:.1e}"


def _check_refinement(shared):
    errs = []
    for nx in (101, 201, 401):
        _, field = _solved_field(shared, "bachelier_put", nx)
        errs.append(abs(field.at(0.0, np.array([1.0])) - CLOSED_FORM_ATM_PUT))
    ok = all(errs[i + 1] <= errs[i] / 1.5 for i in range(len(errs) - 1))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    return ok, "errors " + " -> ".join(f"{e:.2e}" for e in errs) + f"; ratios {ratios[0]:.2f}, {ratios[1]:.2f}"


CHECKS = (
    (1, "closed-form put value", _check_closed_form, 30.0),
    (2, "two solvers and forward simulation agree", _check_method_triangle, 120.0),
    (3, "truncation ladders monotone and exhaustive", _check_truncation_ladders, None),
    (4, "reflection complementarity exact", _check_complementarity, None),
    (5, "obstacle floor and terminal condition exact", _check_obstacle_terminal, None),
    (6, "Hamiltonian Lipschitz bound on samples", _check_lipschitz, None),
    (7, "dominating generator majorises", _check_domination, None),
    (8, "change-of-measure densities are martingales", _check_change_of_measure, None),
    (9, "extracted strategy beats challengers", _check_optimality, None),
    (11, "comparison ordering and shift equivariance", _check_comparison, None),
    (12, "error shrinks under grid refinement", _check_refinement, None),
)

CHECK_IDS = tuple(cid for cid, _, _, _ in CHECKS)


def run_all(only=None) -> list[CheckResult]:
    """Run the acceptance checks (optionally a subset of ids), never raising."""
    shared = _Shared()
    results = []
    for cid, name, fn, limit in CHECKS:
        if only is not None and cid not in only:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn(shared)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"error: {exc!r}"
        seconds = time.perf_counter() - start
        if limit is not None and seconds > limit:
            passed = False
            detail += f"; over time budget {limit:.0f}s"
        results.append(CheckResult(cid=cid, name=name, passed=passed, detail=detail, seconds=seconds))
    return results


def render(results) -> str:
    lines = []
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        lines.append(f"[{flag}] {r.cid:>2}  {r.name}  ({r.seconds:.2f}s)  {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
