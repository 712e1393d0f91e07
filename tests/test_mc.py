"""Regression Monte-Carlo backward solver."""

from __future__ import annotations

import numpy as np
import pytest

from ctrlstop.hamilton import TruncationIndex
from ctrlstop.mc import (
    RegressionBasis,
    SingularRegressionError,
    _regress,
    skorokhod_residual,
    solve_rbsde,
    truncation_ladder_mc,
)
from ctrlstop.model import Box, build_builtin
from ctrlstop.paths import TimeGrid, simulate_uncontrolled

CLOSED_FORM_ATM_PUT = 0.0797884560802865


def _batch(spec, x0, steps, count, seed):
    grid = TimeGrid(0.0, spec.horizon_T, steps)
    return simulate_uncontrolled(spec, 0.0, x0, grid, count, seed)


def _drift_reward_spec():
    # H*(x, z) = |z| + x changes sign, so both truncation sides act
    return build_builtin(
        "custom",
        {
            "dim": 1,
            "T": 1.0,
            "sigma": ["1"],
            "f": ["a1"],
            "gamma": "x1",
            "g": "abs(x1)",
            "h": "-10",
            "controls": [[-1.0], [0.0], [1.0]],
            "growth": {"C_f": 1.0, "C_sigma_inv": 1.0, "C_poly": 10.0, "p": 1.0},
            "lo": -4.0,
            "hi": 4.0,
        },
    )


def test_constant_running_reward_adds_the_horizon():
    spec = build_builtin(
        "custom",
        {
            "dim": 1,
            "T": 1.0,
            "sigma": ["1"],
            "f": ["0"],
            "gamma": "1",
            "g": "x1*x1",
            "h": "-1000000",
            "controls": [[0.0]],
            "growth": {"C_f": 0.0, "C_sigma_inv": 1.0, "C_poly": 1e6, "p": 2.0},
            "lo": -5.0,
            "hi": 5.0,
        },
    )
    batch = _batch(spec, [0.5], steps=8, count=4000, seed=1)
    result = solve_rbsde(spec, batch)
    expected = float(np.mean(spec.g(batch.states[:, -1]))) + 1.0
    assert abs(result.y0 - expected) < 1e-10
    assert np.all(result.k_increments == 0.0)


def test_bachelier_y0_near_closed_form():
    spec = build_builtin("bachelier_put")
    batch = _batch(spec, [1.0], steps=25, count=20000, seed=2)
    result = solve_rbsde(spec, batch, RegressionBasis(kind="polynomial", degree=6))
    # reflecting against the noisy continuation at every node biases y0 up a
    # little; the gap shrinks with paths and steps but never goes negative
    assert abs(result.y0 - CLOSED_FORM_ATM_PUT) < 8e-3
    assert result.y0 >= CLOSED_FORM_ATM_PUT - 3.0 * result.se_y0
    assert result.se_y0 < 1e-3


def test_complementarity_is_exact():
    spec = build_builtin("decaying_obstacle", {"beta": 2.0})
    batch = _batch(spec, [1.0], steps=25, count=20000, seed=3)
    result = solve_rbsde(spec, batch)
    K = result.k_increments
    assert np.all(K >= 0.0)
    assert np.count_nonzero(K) > 0
    assert skorokhod_residual(result) == 0.0
    reflected = K > 0
    assert np.array_equal(result.y_nodes[reflected], result.obstacle_nodes[reflected])


def test_terminal_slice_is_exact():
    spec = build_builtin("decaying_obstacle")
    batch = _batch(spec, [1.0], steps=10, count=500, seed=4)
    result = solve_rbsde(spec, batch)
    XT = batch.states[:, -1]
    assert np.array_equal(result.y_nodes[:, -1], spec.g(XT))
    assert np.array_equal(result.obstacle_nodes[:, -1], spec.h(1.0, XT))
    assert np.all(result.z_nodes[:, -1] == 0.0)


def test_root_slice_regresses_to_a_plain_mean():
    spec = build_builtin("decaying_obstacle")
    batch = _batch(spec, [1.0], steps=12, count=3000, seed=5)
    result = solve_rbsde(spec, batch)
    assert result.diagnostics["occupied_cells"][0] == 1
    assert np.ptp(result.y_nodes[:, 0]) == 0.0
    assert result.y0 == pytest.approx(result.y_nodes[0, 0], rel=1e-13)
    assert abs(np.mean(result.y0_samples) - result.y0) < 1e-12
    assert result.se_y0 > 0.0


def test_polynomial_basis_agrees_with_the_partition():
    spec = build_builtin("bachelier_put")
    batch = _batch(spec, [1.0], steps=15, count=10000, seed=6)
    # a partition matched to where the paths actually live, not the full box
    local = solve_rbsde(spec, batch, RegressionBasis(box=Box([0.0], [2.0]), cells_per_axis=50))
    poly = solve_rbsde(spec, batch, RegressionBasis(kind="polynomial", degree=5))
    assert abs(local.y0 - poly.y0) < 5e-3
    assert abs(poly.y0 - CLOSED_FORM_ATM_PUT) < 0.01
    assert abs(local.y0 - CLOSED_FORM_ATM_PUT) < 0.01
    assert np.all(poly.diagnostics["condition_numbers"][:-1] >= 1.0)


def test_dominating_generator_dominates_on_the_same_batch():
    spec = build_builtin("controlled_drift_abs")
    batch = _batch(spec, [0.0], steps=15, count=5000, seed=7)
    base = solve_rbsde(spec, batch)
    majorant = solve_rbsde(spec, batch, generator="dominating")
    diff = majorant.y0_samples - base.y0_samples
    se = float(np.std(diff, ddof=1) / np.sqrt(diff.size))
    assert float(np.mean(diff)) > -2.0 * se
    assert majorant.y0 > base.y0


def test_truncation_is_bitwise_inert_once_cutoffs_cover_the_paths():
    spec = _drift_reward_spec()
    batch = _batch(spec, [0.0], steps=10, count=2000, seed=8)
    nbig = int(np.ceil(np.max(np.abs(batch.states)))) + 1
    base = solve_rbsde(spec, batch)
    damped = solve_rbsde(spec, batch, trunc=TruncationIndex(nbig, nbig))
    assert np.array_equal(damped.y_nodes, base.y_nodes)
    assert np.array_equal(damped.k_increments, base.k_increments)
    tight = solve_rbsde(spec, batch, trunc=TruncationIndex(1, 1))
    assert not np.array_equal(tight.y_nodes, base.y_nodes)


def test_ladder_orders_and_exhausts():
    spec = _drift_reward_spec()
    batch = _batch(spec, [0.0], steps=10, count=4000, seed=9)
    nbig = max(5, int(np.ceil(np.max(np.abs(batch.states)))) + 1)
    basis = RegressionBasis(cells_per_axis=15)
    report = truncation_ladder_mc(
        spec, batch, basis, n_list=(1, nbig), m_list=(1, nbig)
    )
    assert report.passed, report.comparisons
    assert report.exhaustion_gap == 0.0
    assert len(report.y0) == 4
    # the tight cutoff visibly moves the root value
    assert abs(report.y0[(1, 1)] - report.y0_untruncated) > 1e-3


def test_singular_polynomial_design_is_reported():
    X = np.repeat([0.0, 1.0], 50)[:, None]
    basis = RegressionBasis(kind="polynomial", degree=5)
    with pytest.raises(SingularRegressionError, match="singular regression at node 3"):
        _regress(basis, Box([-2.0], [2.0]), X, node=3)


def test_polynomial_projector_matches_least_squares():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(3000, 2)) * [1.0, 2.0] + [0.5, -1.0]
    targets = np.column_stack([np.sin(X[:, 0]) + X[:, 1] ** 2, rng.normal(size=3000), X[:, 0] * X[:, 1]])
    project, diag = _regress(RegressionBasis(kind="polynomial", degree=3), Box([-5.0, -5.0], [5.0, 5.0]), X, node=0)
    # raw monomials span the same space as the standardised basis
    raw = np.column_stack([X[:, 0] ** i * X[:, 1] ** j for i in range(4) for j in range(4) if i + j <= 3])
    fitted = raw @ np.linalg.lstsq(raw, targets, rcond=None)[0]
    assert diag["cells"] == raw.shape[1] == 10
    assert np.max(np.abs(project(targets) - fitted)) <= 1e-10
    # one target column at a time goes through the same factorisation
    assert np.max(np.abs(project(targets[:, 0]) - fitted[:, 0])) <= 1e-10


def test_rank_deficient_design_is_reported():
    x1 = np.random.default_rng(14).normal(size=500)
    X = np.column_stack([x1, 2.0 * x1 + 1.0])  # the standardised columns coincide
    with pytest.raises(SingularRegressionError, match="node 7"):
        _regress(RegressionBasis(kind="polynomial", degree=2), Box([-9.0, -9.0], [9.0, 9.0]), X, node=7)


def test_centred_z_keeps_the_5d_value_below_its_upper_bound():
    # E|x0 + B_T| + kappa sqrt(d) T bounds the value: the drift moves |X_T| by
    # at most kappa sqrt(d) T and the obstacle floor never binds
    spec = build_builtin("controlled_drift_abs", {"d": 5})
    batch = _batch(spec, [0.5] * 5, steps=10, count=4000, seed=15)
    result = solve_rbsde(spec, batch, RegressionBasis(kind="polynomial", degree=3))
    assert result.y0 < 4.618


def test_partition_cell_budget_is_bounded():
    X = np.random.default_rng(1).normal(size=(10, 2))
    basis = RegressionBasis(cells_per_axis=3000)
    with pytest.raises(ValueError, match="local partition too fine"):
        _regress(basis, Box([-5.0, -5.0], [5.0, 5.0]), X, node=0)


def test_input_validation():
    with pytest.raises(ValueError, match="basis kind"):
        RegressionBasis(kind="bogus")
    with pytest.raises(ValueError, match="cells_per_axis"):
        RegressionBasis(cells_per_axis=0)
    with pytest.raises(ValueError, match="degree"):
        RegressionBasis(kind="polynomial", degree=-1)
    put = build_builtin("bachelier_put")
    batch = _batch(put, [1.0], steps=4, count=50, seed=10)
    with pytest.raises(ValueError, match="generator must be"):
        solve_rbsde(put, batch, generator="bogus")
    wide = build_builtin("controlled_drift_abs", {"d": 2})
    batch2 = _batch(wide, [0.0, 0.0], steps=4, count=50, seed=11)
    with pytest.raises(ValueError, match="batch dimension"):
        solve_rbsde(put, batch2)


def test_reflection_frequency_profile():
    spec = build_builtin("decaying_obstacle", {"beta": 2.0})
    batch = _batch(spec, [1.0], steps=20, count=8000, seed=12)
    result = solve_rbsde(spec, batch)
    freq = result.reflection_frequency
    assert freq.shape == (21,)
    assert freq[-1] == 0.0
    assert np.max(freq) > 0.01
    assert np.all((freq >= 0.0) & (freq <= 1.0))
