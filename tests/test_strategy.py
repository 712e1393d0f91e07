"""Forward strategy evaluation and change-of-measure checks."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from ctrlstop import strategy
from ctrlstop.model import build_builtin
from ctrlstop.paths import CHUNK, TimeGrid, _diffusion, _draw_increments, girsanov_log_batch
from ctrlstop.paths import PathBatch, simulate_controlled, simulate_uncontrolled
from ctrlstop.pde import make_grid, solve
from ctrlstop.strategy import (
    Breakdown,
    ConstantPolicy,
    PayoffEstimate,
    default_challengers,
    evaluate,
    martingale_check,
    optimality_gap,
)

from oracles import girsanov_log_terms

CLOSED_FORM_ATM_PUT = 0.0797884560802865


class _StopNow(ConstantPolicy):
    def stop_at(self, t, X):
        return np.ones(X.shape[0], dtype=bool)


def test_immediate_stop_pays_the_obstacle_exactly():
    spec = build_builtin("decaying_obstacle")  # h(0, 0.5) = 0.5 * 1.5 = 0.75
    est = evaluate(spec, _StopNow(0), TimeGrid(0.0, 1.0, 10), [0.5], 500, seed=1)
    assert est.mean == 0.75
    assert est.stderr == 0.0
    assert est.breakdown.obstacle == 0.75
    assert est.breakdown.running == 0.0
    assert est.breakdown.terminal == 0.0
    assert est.breakdown.fraction_stopped_early == 1.0


def test_never_stopping_recovers_the_european_value():
    spec = build_builtin("bachelier_put")
    est = evaluate(spec, ConstantPolicy(0), TimeGrid(0.0, 1.0, 25), [1.0], 20000, seed=2)
    assert est.breakdown.fraction_stopped_early == 0.0
    assert est.breakdown.obstacle == 0.0
    assert abs(est.mean - CLOSED_FORM_ATM_PUT) < 4.0 * est.stderr
    assert est.mean == est.breakdown.running + est.breakdown.obstacle + est.breakdown.terminal


def test_running_reward_accrues_once_per_surviving_step():
    spec = build_builtin(
        "custom",
        {
            "dim": 1,
            "T": 1.0,
            "sigma": ["1"],
            "f": ["0"],
            "gamma": "1",
            "g": "0",
            "h": "-1000000",
            "controls": [[0.0]],
            "growth": {"C_f": 0.0, "C_sigma_inv": 1.0, "C_poly": 1e6, "p": 1.0},
            "lo": -5.0,
            "hi": 5.0,
        },
    )
    est = evaluate(spec, ConstantPolicy(0), TimeGrid(0.0, 1.0, 8), [0.0], 300, seed=3)
    assert est.breakdown.running == 1.0  # 8 steps x dt = 1/8, no step skipped
    assert est.breakdown.terminal == 0.0
    assert est.mean == 1.0
    # stopping at the first node skips all running reward
    now = evaluate(spec, _StopNow(0), TimeGrid(0.0, 1.0, 8), [0.0], 300, seed=3)
    assert now.breakdown.running == 0.0
    assert now.mean == -1000000.0


def test_forward_simulation_matches_the_field_value():
    spec = build_builtin("decaying_obstacle", {"beta": 2.0})
    field = solve(spec, make_grid(spec, 161))
    est = evaluate(spec, field, TimeGrid(0.0, 1.0, 50), [1.0], 20000, seed=4)
    v0 = field.at(0.0, [1.0])
    assert abs(est.mean - v0) <= 2.0 * est.stderr + 0.015 * max(0.1, abs(v0))
    assert est.breakdown.fraction_stopped_early > 0.05


def test_challenger_names_cover_the_control_set():
    spec = build_builtin("controlled_drift_abs")
    names = [name for name, _ in default_challengers(spec, ConstantPolicy(0))]
    assert names == [
        "constant control (-1.0)",
        "constant control (0.0)",
        "constant control (1.0)",
        "uniform random control",
        "optimal control, stop immediately",
        "optimal control, never stop early",
    ]


def test_optimality_report_accepts_the_extracted_policy():
    spec = build_builtin("controlled_drift_abs")
    field = solve(spec, make_grid(spec, 161))
    report = optimality_gap(spec, field, TimeGrid(0.0, 1.0, 40), [0.5], 20000, seed=21)
    assert report.passed, (report.field_gap, report.field_budget)
    assert report.field_gap <= report.field_budget
    by_name = {row.name: row for row in report.rows}
    # doing nothing is measurably worse than pushing outward
    zero = by_name["constant control (0.0)"]
    assert zero.gap < -3.0 * zero.se_combined
    stop = by_name["optimal control, stop immediately"]
    assert stop.estimate.mean == -10.0
    # the obstacle never binds here, and the challengers run on the optimal run's paths,
    # so suppressing stops gives the optimal estimate bit for bit
    never = by_name["optimal control, never stop early"]
    assert never.estimate == report.optimal
    assert never.gap == 0.0


def test_a_state_dependent_drift_keeps_its_challengers_below_the_optimal_run():
    """No challenger beats the extracted policy: on common paths, never stopping
    early cannot look better by the noise of an independent run."""
    spec = build_builtin(
        "custom",
        {
            "name": "state-drift-d1",
            "dim": 1,
            "T": 1.0,
            "sigma": ["1"],
            "f": ["a1*(1+0.2*tanh(x1))"],
            "gamma": "-0.1*a1*a1*(1+0.2*tanh(x1))",
            "g": "max(abs(x1),0.8)",
            "h": "0.8",
            "controls": [[-1.0], [0.0], [1.0]],
            "growth": {"C_f": 1.5, "C_sigma_inv": 1.0, "C_poly": 10.0, "p": 1.0},
            "lo": -4.0,
            "hi": 4.0,
        },
    )
    field = solve(spec, make_grid(spec, 81))
    report = optimality_gap(spec, field, TimeGrid(0.0, 1.0, 50), [0.5], 20000, seed=0)
    assert report.passed, [(row.name, row.gap, row.se_combined) for row in report.rows]


def test_martingale_check_zero_drift_is_exact():
    spec = build_builtin("controlled_drift_abs")
    est = martingale_check(spec, ConstantPolicy(1), TimeGrid(0.0, 1.0, 10), [0.0], 200, seed=5)
    assert est.mean == 1.0
    assert est.stderr == 0.0
    assert est.q_moment == 1.0


def test_martingale_check_constant_drift():
    spec = build_builtin("controlled_drift_abs")
    est = martingale_check(spec, ConstantPolicy(2), TimeGrid(0.0, 1.0, 25), [0.0], 20000, seed=6)
    assert abs(est.mean - 1.0) < 4.0 * est.stderr
    # discrete-time moment: exp(q (q - 1) theta^2 T / 2) with theta = 1 and q = 1.5
    assert strategy.MOMENT_Q == 1.5
    oracle = float(np.exp(0.375))
    assert abs(est.q_moment / oracle - 1.0) < 0.05


def test_martingale_check_stores_no_path_batch():
    spec = build_builtin("controlled_drift_abs", {"d": 2})
    count, steps = 20000, 20
    increments = count * steps * spec.dim * 8
    tracemalloc.start()
    try:
        martingale_check(spec, ConstantPolicy(4), TimeGrid(0.0, 1.0, steps), [0.1, -0.1], count, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one chunk's increments (0.82 of the batch's here) and one block's draw
    # buffer (0.41), measured 1.52 in all; a stored batch of states, controls
    # or per-step terms would add at least another half
    assert peak < 1.6 * increments, peak / increments


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_memory_does_not_grow_with_the_path_count():
    spec = build_builtin("controlled_drift_abs", {"d": 2})
    grid = TimeGrid(0.0, 1.0, 20)
    for run in (evaluate, martingale_check):
        policy = _Band(1.1) if run is evaluate else ConstantPolicy(4)
        one, six = (
            _traced_peak(lambda: run(spec, policy, grid, [0.1, -0.1], count, seed=3)) for count in (CHUNK, 6 * CHUNK)
        )
        # the per-path sums and results grow, the chunk buffers do not:
        # measured 1.11 for evaluate and 1.08 for martingale_check
        assert six < 1.2 * one, (run.__name__, six / one)


def test_martingale_check_makes_one_density_pass(monkeypatch):
    calls = []
    one_pass = strategy.girsanov_log_batch

    def counted(*args, **kwargs):
        calls.append(args)
        return one_pass(*args, **kwargs)

    monkeypatch.setattr(strategy, "girsanov_log_batch", counted)
    spec = build_builtin("controlled_drift_abs")
    martingale_check(spec, ConstantPolicy(2), TimeGrid(0.0, 1.0, 5), [0.0], 100, seed=1)
    assert len(calls) == 1


def test_evaluate_rejects_out_of_range_control():
    spec = build_builtin("controlled_drift_abs")
    for index in (-1, spec.controls.k):
        with pytest.raises(ValueError, match=r"control indices must lie in \[0, 3\)"):
            evaluate(spec, ConstantPolicy(index), TimeGrid(0.0, 1.0, 4), [0.5], 10, seed=0)


def test_constant_policy_interface():
    p = ConstantPolicy(2)
    X = np.zeros((5, 1))
    assert np.all(p.control_indices(0.0, X) == 2)
    assert not np.any(p.stop_at(0.0, X))


class _Band:
    """Control by the sign of x1; stops from ``stop_from`` on wherever x1 + x2 > ``level``."""

    def __init__(self, level, stop_from=0.0):
        self.level = level
        self.stop_from = stop_from

    def control_indices(self, t, X):
        return np.where(X[:, 0] > 0.0, 0, 2)

    def stop_at(self, t, X):
        return (t >= self.stop_from) & (X[:, 0] + X[:, 1] > self.level)


class _Recorder:
    """Wraps a policy and records (method, t, rows asked about, rows that stop)."""

    def __init__(self, base):
        self.base = base
        self.calls = []

    def control_indices(self, t, X):
        self.calls.append(("control", t, X.shape[0], 0))
        return self.base.control_indices(t, X)

    def stop_at(self, t, X):
        fire = self.base.stop_at(t, X)
        self.calls.append(("stop", t, X.shape[0], int(np.count_nonzero(fire))))
        return fire


@pytest.fixture(scope="module")
def correlated_localvol():
    """d = 2 with a correlated sigma and a drift that read the state, and a reward that reads only the state."""
    spec = build_builtin(
        "custom",
        {
            "dim": 2,
            "T": 1.0,
            "sigma": ["0.9+0.1*tanh(x1)", "0.3*tanh(x2-t)", "-0.2", "0.7+0.1*tanh(x1+x2)"],
            "f": ["a1-0.2*x1", "0.5*a1+0.1*tanh(x2)"],
            "gamma": "0.05*x1*x2",
            "g": "max(1-0.5*x1-0.5*x2,0)",
            "h": "max(1-0.5*x1-0.5*x2,0)*(1+0.5*(1-t))",
            "controls": [[1.0], [0.0], [-1.0]],
            "growth": {"C_f": 5.0, "C_sigma_inv": 3.0, "C_poly": 10.0, "p": 2.0},
            "lo": -4.0,
            "hi": 4.0,
        },
    )
    c = spec.coefficients
    assert {"t", "x"} <= c.reads("sigma") and not c.sigma_diagonal and "x" in c.reads("f")
    return spec


@pytest.fixture(scope="module")
def correlated():
    """d = 2 with a constant, non-diagonal sigma and a state-dependent reward."""
    spec = build_builtin(
        "custom",
        {
            "dim": 2,
            "T": 1.0,
            "sigma": ["0.9", "0.3", "-0.2", "0.7"],
            "f": ["a1", "0.5*a1"],
            "gamma": "-0.1*a1*a1+0.05*x1",
            "g": "max(1-0.5*x1-0.5*x2,0)",
            "h": "max(1-0.5*x1-0.5*x2,0)*(1+0.5*(1-t))",
            "controls": [[1.0], [0.0], [-1.0]],
            "growth": {"C_f": 1.5, "C_sigma_inv": 2.0, "C_poly": 10.0, "p": 1.0},
            "lo": -4.0,
            "hi": 4.0,
        },
    )
    assert not spec.coefficients.reads("sigma") and not spec.coefficients.sigma_diagonal
    return spec


def _two_pass(spec, policy, grid, x0, count, seed):
    """Simulate every path to T on the full batch, then find where each stops."""
    dW = _draw_increments(count, grid.steps, spec.dim, grid.dt, seed)
    states = np.empty((grid.steps + 1, count, spec.dim))
    controls = np.empty((grid.steps, count), dtype=np.int64)
    states[0] = x0
    for i in range(grid.steps):
        t = float(grid.nodes[i])
        sig = spec.sigma(t, states[i])  # the full [n, d, d] batch
        controls[i] = policy.control_indices(t, states[i])
        drift, _ = spec.control_rows(t, states[i], controls[i])
        states[i + 1] = states[i] + drift * grid.dt + _diffusion(spec, sig, dW[i])
    running = np.zeros(count)
    collected = np.zeros(count)
    alive = np.ones(count, dtype=bool)
    stopped_early = np.zeros(count, dtype=bool)
    for i in range(grid.steps):
        t = float(grid.nodes[i])
        X = states[i]
        fire = alive & np.asarray(policy.stop_at(t, X), dtype=bool)
        if fire.any():
            collected[fire] = spec.h(t, X[fire])
            stopped_early[fire] = True
            alive[fire] = False
        if not alive.any():
            break
        _, G = spec.control_rows(t, X[alive], controls[i][alive])
        running[alive] += G * grid.dt
    terminal = np.zeros(count)
    if alive.any():
        terminal[alive] = spec.g(states[grid.steps][alive])
    reward = running + collected + terminal
    parts = [float(np.mean(part)) for part in (running, collected, terminal)]
    return PayoffEstimate(
        mean=sum(parts),
        stderr=float(np.std(reward, ddof=1) / math.sqrt(count)),
        count=count,
        breakdown=Breakdown(*parts, fraction_stopped_early=float(np.mean(stopped_early))),
    )


@pytest.mark.parametrize(
    "policy, stopped",
    [
        (_Band(1.1), (0.3, 0.7)),  # about half the paths stop
        (_Band(-9.0, stop_from=0.5), (1.0, 1.0)),  # every path stops at t = 0.5: the loop ends early
        (_Band(99.0), (0.0, 0.0)),  # none stops
    ],
)
def test_one_pass_equals_the_two_pass_evaluation(correlated, policy, stopped):
    grid = TimeGrid(0.0, 1.0, 10)
    count = 2 * CHUNK + 900  # three chunks, the last a partial block
    est = evaluate(correlated, policy, grid, [0.2, 0.1], count, seed=11)
    assert stopped[0] <= est.breakdown.fraction_stopped_early <= stopped[1]
    assert est == _two_pass(correlated, policy, grid, np.array([0.2, 0.1]), count, 11)


@pytest.mark.parametrize(
    "policy, stopped",
    [
        (_Band(1.1), (0.5, 0.75)),  # about 62% of the paths stop
        (_Band(-9.0), (1.0, 1.0)),  # every path stops at the first node: no step is taken
        (_Band(-9.0, stop_from=0.5), (1.0, 1.0)),  # every path stops at t = 0.5
        (_Band(99.0), (0.0, 0.0)),  # none stops
    ],
)
def test_one_pass_equals_the_two_pass_evaluation_under_a_state_dependent_sigma(correlated_localvol, policy, stopped):
    grid = TimeGrid(0.0, 1.0, 10)
    count = 2 * CHUNK + 900  # three chunks, the last a partial block
    est = evaluate(correlated_localvol, policy, grid, [0.2, 0.1], count, seed=14)
    assert stopped[0] <= est.breakdown.fraction_stopped_early <= stopped[1]
    assert est == _two_pass(correlated_localvol, policy, grid, np.array([0.2, 0.1]), count, 14)


def test_policy_is_asked_about_live_rows_only(correlated):
    policy = _Recorder(_Band(1.1))
    grid = TimeGrid(0.0, 1.0, 10)
    est = evaluate(correlated, policy, grid, [0.2, 0.1], 3000, seed=11)
    live = 3000
    steps = iter(grid.nodes[:-1])
    calls = iter(policy.calls)
    for (kind, t, rows, fired), (kind2, t2, rows2, _) in zip(calls, calls):
        # stop_at comes first, then control_indices on the survivors only
        assert (kind, kind2) == ("stop", "control")
        assert t == t2 == next(steps)
        assert rows == live and rows2 == live - fired
        live = rows2
    assert len(policy.calls) == 2 * grid.steps
    assert 0 < live < 3000
    assert est.breakdown.fraction_stopped_early == (3000 - live) / 3000


def _neumaier_rows(terms):
    """Per-row compensated sum of [n, N] terms, in girsanov_log_batch's order."""
    total = np.zeros(terms.shape[0])
    comp = np.zeros(terms.shape[0])
    for term in terms.T:
        s = total + term
        big = np.abs(total) >= np.abs(term)
        comp += np.where(big, (total - s) + term, (term - s) + total)
        total = s
    return total + comp


class _ByTime:
    """Control round(10 t) mod 3, whatever the state."""

    def control_indices(self, t, X):
        return np.full(X.shape[0], int(round(10 * t)) % 3)


def test_log_density_batch_equals_the_summed_terms_across_chunks(correlated):
    grid = TimeGrid(0.0, 1.0, 10)
    count = 2 * CHUNK + 900
    x0 = [0.2, 0.1]
    # a state-free theta: the drifted batch has the driftless batch's terms
    logs = girsanov_log_batch(correlated, _ByTime(), 0.0, x0, grid, count, seed=12)
    drifted = simulate_controlled(correlated, _ByTime(), 0.0, x0, grid, count, seed=12)
    assert logs.tobytes() == _neumaier_rows(girsanov_log_terms(correlated, drifted)).tobytes()
    # a state-dependent control, asked about the driftless states
    band = _Band(0.0)
    logs = girsanov_log_batch(correlated, band, 0.0, x0, grid, count, seed=12)
    free = simulate_uncontrolled(correlated, 0.0, x0, grid, count, seed=12)
    controls = np.stack([band.control_indices(t, free.states[:, i]) for i, t in enumerate(grid.nodes[:-1])], axis=1)
    batch = PathBatch(grid=grid, states=free.states, increments=free.increments, controls=controls)
    assert logs.tobytes() == _neumaier_rows(girsanov_log_terms(correlated, batch)).tobytes()


def test_log_densities_of_fewer_paths_are_a_prefix(correlated):
    grid = TimeGrid(0.0, 1.0, 10)
    count = 2 * CHUNK + 900
    small = girsanov_log_batch(correlated, _Band(0.0), 0.0, [0.2, 0.1], grid, count, seed=13)
    large = girsanov_log_batch(correlated, _Band(0.0), 0.0, [0.2, 0.1], grid, count + CHUNK, seed=13)
    assert large[:count].tobytes() == small.tobytes()
