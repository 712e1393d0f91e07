"""Path simulation: reproducibility, Euler structure, measure change."""

from __future__ import annotations

import numpy as np
import pytest

from ctrlstop.model import build_builtin
from ctrlstop.paths import (
    BLOCK,
    TimeGrid,
    PathBatch,
    attach_controls,
    girsanov_log_batch,
    girsanov_log_terms,
    simulate_controlled,
    simulate_uncontrolled,
)
from ctrlstop.strategy import ConstantPolicy


@pytest.fixture(scope="module")
def bachelier():
    return build_builtin("bachelier_put")


@pytest.fixture(scope="module")
def controlled():
    return build_builtin("controlled_drift_abs")


def test_time_grid_validation():
    with pytest.raises(ValueError, match="T > t0"):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError, match="at least one step"):
        TimeGrid(0.0, 1.0, 0)
    g = TimeGrid(0.0, 1.0, 4)
    assert g.dt == 0.25
    assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_simulation_is_bit_reproducible(bachelier):
    g = TimeGrid(0.0, 1.0, 10)
    a = simulate_uncontrolled(bachelier, 0.0, [1.0], g, 500, seed=42)
    b = simulate_uncontrolled(bachelier, 0.0, [1.0], g, 500, seed=42)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.increments, b.increments)
    c = simulate_uncontrolled(bachelier, 0.0, [1.0], g, 500, seed=43)
    assert not np.array_equal(a.states, c.states)


def test_growing_the_batch_preserves_existing_paths(bachelier):
    g = TimeGrid(0.0, 1.0, 5)
    small = simulate_uncontrolled(bachelier, 0.0, [1.0], g, BLOCK + 808, seed=7)
    large = simulate_uncontrolled(bachelier, 0.0, [1.0], g, BLOCK + 3808, seed=7)
    assert np.array_equal(large.states[: BLOCK + 808], small.states)


def test_batch_arrays_are_frozen(bachelier):
    g = TimeGrid(0.0, 1.0, 3)
    batch = simulate_uncontrolled(bachelier, 0.0, [1.0], g, 10, seed=1)
    with pytest.raises((ValueError, RuntimeError)):
        batch.states[0, 0, 0] = 99.0


def test_zero_drift_policy_reproduces_uncontrolled_states(bachelier):
    g = TimeGrid(0.0, 1.0, 12)
    free = simulate_uncontrolled(bachelier, 0.0, [1.0], g, 300, seed=9)
    steered = simulate_controlled(bachelier, ConstantPolicy(0), 0.0, [1.0], g, 300, seed=9)
    assert np.array_equal(free.states, steered.states)
    assert steered.controls.shape == (300, 12)
    assert np.all(steered.controls == 0)


def test_constant_sigma_euler_recursion(bachelier):
    g = TimeGrid(0.0, 1.0, 8)
    batch = simulate_uncontrolled(bachelier, 0.0, [0.5], g, 64, seed=3)
    sig = bachelier.sigma(0.0, batch.states[:, 0])
    manual = np.full((64, 1), 0.5)
    for i in range(8):
        manual = manual + np.einsum("nij,nj->ni", sig, batch.increments[:, i])
        assert np.array_equal(batch.states[:, i + 1], manual)


def test_increment_scaling_matches_dt():
    spec = build_builtin("bachelier_put")
    g = TimeGrid(0.0, 1.0, 16)
    batch = simulate_uncontrolled(spec, 0.0, [1.0], g, 20000, seed=11)
    var = np.var(batch.increments)
    assert abs(var - g.dt) < 5e-4


def test_input_validation(bachelier):
    g = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="grid.t0 must equal t0"):
        simulate_uncontrolled(bachelier, 0.5, [1.0], g, 10, seed=0)
    with pytest.raises(ValueError, match="x0 has dimension"):
        simulate_uncontrolled(bachelier, 0.0, [1.0, 2.0], g, 10, seed=0)
    with pytest.raises(ValueError, match="count must be positive"):
        simulate_uncontrolled(bachelier, 0.0, [1.0], g, 0, seed=0)


def test_girsanov_requires_controls(bachelier):
    g = TimeGrid(0.0, 1.0, 4)
    batch = simulate_uncontrolled(bachelier, 0.0, [1.0], g, 10, seed=0)
    with pytest.raises(ValueError, match="no recorded controls"):
        girsanov_log_batch(bachelier, batch)


def test_girsanov_rejects_out_of_range_control(controlled):
    g = TimeGrid(0.0, 1.0, 4)
    batch = simulate_uncontrolled(controlled, 0.0, [0.0], g, 10, seed=0)
    # -1 would otherwise wrap around to the last control
    for index in (-1, controlled.controls.k):
        with pytest.raises(ValueError, match=r"control indices must lie in \[0, 3\)"):
            girsanov_log_terms(controlled, attach_controls(batch, ConstantPolicy(index)))


def test_zero_drift_density_is_exactly_one(bachelier):
    g = TimeGrid(0.0, 1.0, 6)
    batch = simulate_uncontrolled(bachelier, 0.0, [1.0], g, 50, seed=2)
    batch = attach_controls(batch, ConstantPolicy(0))
    logs = girsanov_log_batch(bachelier, batch)
    assert np.array_equal(logs, np.zeros(50))
    assert np.exp(logs[0]) == 1.0


def test_constant_drift_log_density_closed_form(controlled):
    g = TimeGrid(0.0, 1.0, 10)
    batch = simulate_uncontrolled(controlled, 0.0, [0.0], g, 400, seed=5)
    batch = attach_controls(batch, ConstantPolicy(controlled.controls.index_of(1.0)))
    logs = girsanov_log_batch(controlled, batch)
    # theta = 1: log M = sum dB - T/2
    expected = np.sum(batch.increments[:, :, 0], axis=1) - 0.5
    assert np.max(np.abs(logs - expected)) < 1e-12
    terms = girsanov_log_terms(controlled, batch)
    assert terms.shape == (400, 10)
    assert np.max(np.abs(np.sum(terms, axis=1) - logs)) < 1e-12


def test_density_is_a_discrete_martingale(controlled):
    g = TimeGrid(0.0, 1.0, 25)
    batch = simulate_uncontrolled(controlled, 0.0, [0.0], g, 20000, seed=6)
    batch = attach_controls(batch, ConstantPolicy(controlled.controls.index_of(1.0)))
    weights = np.exp(girsanov_log_batch(controlled, batch))
    mean = float(np.mean(weights))
    se = float(np.std(weights, ddof=1)) / np.sqrt(weights.size)
    assert abs(mean - 1.0) < 4.0 * se


def test_log_batch_rows_match_single_path_batches(controlled):
    g = TimeGrid(0.0, 1.0, 8)
    batch = simulate_controlled(
        controlled, ConstantPolicy(2), 0.0, [0.0], g, 30, seed=8
    )
    logs = girsanov_log_batch(controlled, batch)
    one = PathBatch(
        grid=batch.grid,
        states=batch.states[3:4].copy(),
        increments=batch.increments[3:4].copy(),
        seed=batch.seed,
        x0=batch.x0,
        controls=batch.controls[3:4].copy(),
    )
    fresh = float(np.exp(girsanov_log_batch(controlled, one)[0]))
    assert fresh > 0.0
    assert float(np.exp(logs[3])) == pytest.approx(fresh, rel=1e-14)
    assert logs.shape == (30,)  # one density per path, none beyond the batch


def test_controlled_drift_enters_the_mean(controlled):
    g = TimeGrid(0.0, 1.0, 20)
    push = simulate_controlled(
        controlled, ConstantPolicy(controlled.controls.index_of(1.0)), 0.0, [0.0], g, 4000, seed=13
    )
    end = np.mean(push.states[:, -1, 0])
    assert abs(end - 1.0) < 0.05
