"""Forward strategy evaluation and change-of-measure checks."""

from __future__ import annotations

import numpy as np
import pytest

from ctrlstop.model import build_builtin
from ctrlstop.paths import TimeGrid
from ctrlstop.pde import extract_policy, make_grid, solve
from ctrlstop.strategy import (
    ConstantPolicy,
    default_challengers,
    evaluate,
    martingale_check,
    optimality_gap,
)

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
    policy = extract_policy(spec, field)
    est = evaluate(spec, policy, TimeGrid(0.0, 1.0, 50), [1.0], 20000, seed=4)
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
    policy = extract_policy(spec, field)
    report = optimality_gap(
        spec, field, policy, TimeGrid(0.0, 1.0, 40), [0.5], 20000, seed=21
    )
    assert report.passed, (report.field_gap, report.field_budget)
    assert report.field_gap <= report.field_budget
    by_name = {row.name: row for row in report.rows}
    # doing nothing is measurably worse than pushing outward
    zero = by_name["constant control (0.0)"]
    assert zero.gap < -3.0 * zero.se_combined
    stop = by_name["optimal control, stop immediately"]
    assert stop.estimate.mean == -10.0
    # the obstacle never binds here, so suppressing stops changes nothing
    never = by_name["optimal control, never stop early"]
    assert abs(never.gap) <= 2.0 * never.se_combined


def test_martingale_check_zero_drift_is_exact():
    spec = build_builtin("controlled_drift_abs")
    est = martingale_check(spec, ConstantPolicy(1), TimeGrid(0.0, 1.0, 10), [0.0], 200, seed=5)
    assert est.mean == 1.0
    assert est.stderr == 0.0
    assert est.q_moment == 1.0


def test_martingale_check_constant_drift():
    spec = build_builtin("controlled_drift_abs")
    est = martingale_check(
        spec, ConstantPolicy(2), TimeGrid(0.0, 1.0, 25), [0.0], 20000, seed=6, q=1.5
    )
    assert abs(est.mean - 1.0) < 4.0 * est.stderr
    # discrete-time moment: exp(q (q - 1) theta^2 T / 2) with theta = 1
    oracle = float(np.exp(0.375))
    assert abs(est.q_moment / oracle - 1.0) < 0.05


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
