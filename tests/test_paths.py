"""Path simulation: reproducibility, Euler structure, measure change."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlstop.mc import RegressionBasis, solve_rbsde
from ctrlstop.model import build_builtin, sigma_apply
from ctrlstop.paths import (
    BLOCK,
    TimeGrid,
    PathBatch,
    _diffusion,
    _draw_increments,
    girsanov_log_batch,
    simulate_controlled,
    simulate_uncontrolled,
)
from ctrlstop.strategy import ConstantPolicy

from oracles import girsanov_log_terms


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


def test_girsanov_rejects_out_of_range_control(controlled):
    g = TimeGrid(0.0, 1.0, 4)
    # -1 would otherwise wrap around to the last control
    for index in (-1, controlled.controls.k):
        with pytest.raises(ValueError, match=r"control indices must lie in \[0, 3\)"):
            girsanov_log_batch(controlled, ConstantPolicy(index), 0.0, [0.0], g, 10, seed=0)


def test_zero_drift_density_is_exactly_one(bachelier):
    g = TimeGrid(0.0, 1.0, 6)
    logs = girsanov_log_batch(bachelier, ConstantPolicy(0), 0.0, [1.0], g, 50, seed=2)
    assert np.array_equal(logs, np.zeros(50))
    assert np.exp(logs[0]) == 1.0


def test_constant_drift_log_density_closed_form(controlled):
    g = TimeGrid(0.0, 1.0, 10)
    push = ConstantPolicy(int(np.flatnonzero(controlled.controls.points[:, 0] == 1.0)[0]))
    logs = girsanov_log_batch(controlled, push, 0.0, [0.0], g, 400, seed=5)
    increments = simulate_uncontrolled(controlled, 0.0, [0.0], g, 400, seed=5).increments
    # theta = 1: log M = sum dB - T/2
    expected = np.sum(increments[:, :, 0], axis=1) - 0.5
    assert np.max(np.abs(logs - expected)) < 1e-12
    # theta does not depend on the state, so the drifted batch has the same terms
    terms = girsanov_log_terms(controlled, simulate_controlled(controlled, push, 0.0, [0.0], g, 400, seed=5))
    assert terms.shape == (400, 10)
    assert np.max(np.abs(np.sum(terms, axis=1) - logs)) < 1e-12


def test_density_is_a_discrete_martingale(controlled):
    g = TimeGrid(0.0, 1.0, 25)
    push = ConstantPolicy(int(np.flatnonzero(controlled.controls.points[:, 0] == 1.0)[0]))
    weights = np.exp(girsanov_log_batch(controlled, push, 0.0, [0.0], g, 20000, seed=6))
    mean = float(np.mean(weights))
    se = float(np.std(weights, ddof=1)) / np.sqrt(weights.size)
    assert abs(mean - 1.0) < 4.0 * se


def test_log_batch_rows_match_single_path_batches(controlled):
    g = TimeGrid(0.0, 1.0, 8)
    logs = girsanov_log_batch(controlled, ConstantPolicy(2), 0.0, [0.0], g, 30, seed=8)
    batch = simulate_uncontrolled(controlled, 0.0, [0.0], g, 30, seed=8)
    one = PathBatch(
        grid=batch.grid,
        states=batch.states[3:4].copy(),
        increments=batch.increments[3:4].copy(),
        controls=np.full((1, 8), 2),
    )
    fresh = float(np.exp(np.sum(girsanov_log_terms(controlled, one))))
    assert fresh > 0.0
    assert float(np.exp(logs[3])) == pytest.approx(fresh, rel=1e-14)
    assert logs.shape == (30,)  # one density per path, none beyond the batch


def test_controlled_drift_enters_the_mean(controlled):
    g = TimeGrid(0.0, 1.0, 20)
    push = simulate_controlled(
        controlled, ConstantPolicy(int(np.flatnonzero(controlled.controls.points[:, 0] == 1.0)[0])), 0.0, [0.0], g, 4000, seed=13
    )
    end = np.mean(push.states[:, -1, 0])
    assert abs(end - 1.0) < 0.05


# -- time-major storage ----------------------------------------------------------


def _old_draw_increments(count, steps, dim, dt, seed):
    """The path-major construction: each block written straight into [count, steps, dim]."""
    out = np.empty((count, steps, dim))
    root = np.sqrt(dt)
    for b, start in enumerate(range(0, count, BLOCK)):
        stop = min(start + BLOCK, count)
        rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
        out[start:stop] = rng.standard_normal((stop - start, steps, dim)) * root
    return out


@pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 808])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_time_major_increments_are_the_path_major_draws_transposed(count, dim):
    got = _draw_increments(count, 3, dim, 0.1, seed=17)
    assert got.shape == (3, count, dim) and got.flags.c_contiguous
    ref = np.ascontiguousarray(_old_draw_increments(count, 3, dim, 0.1, seed=17).swapaxes(0, 1))
    assert got.tobytes() == ref.tobytes()


class _SignPolicy:
    """Control 0 where x1 <= 0 and the last control elsewhere."""

    def __init__(self, k):
        self.k = k

    def control_indices(self, t, X):
        return np.where(X[:, 0] > 0.0, self.k - 1, 0)


def _simulated_batches(spec):
    g = TimeGrid(0.0, 1.0, 5)
    free = simulate_uncontrolled(spec, 0.0, [0.1], g, 40, seed=4)
    return {
        "uncontrolled": free,
        "controlled": simulate_controlled(spec, _SignPolicy(spec.controls.k), 0.0, [0.1], g, 40, seed=4),
    }


@pytest.mark.parametrize("kind", ["uncontrolled", "controlled"])
def test_each_step_of_a_batch_is_a_contiguous_row(controlled, kind):
    batch = _simulated_batches(controlled)[kind]
    assert batch.states.shape == (40, 6, 1) and batch.increments.shape == (40, 5, 1)
    assert batch.states.swapaxes(0, 1).flags.c_contiguous
    assert batch.increments.swapaxes(0, 1).flags.c_contiguous
    if kind != "uncontrolled":
        assert batch.controls.shape == (40, 5)
        assert batch.controls.T.flags.c_contiguous


@pytest.mark.parametrize("kind", ["uncontrolled", "controlled"])
def test_batch_buffers_have_no_writable_owner(controlled, kind):
    batch = _simulated_batches(controlled)[kind]
    fields = [batch.states, batch.increments]
    if kind != "uncontrolled":
        fields.append(batch.controls)
    for arr in fields:
        assert not arr.flags.writeable
        assert arr.base is None or not arr.base.flags.writeable


@pytest.mark.parametrize("shape", [(), (1,)])
def test_batch_keeps_its_own_copy_of_x0(controlled, shape):
    g = TimeGrid(0.0, 1.0, 3)
    for simulate in (
        lambda x0: simulate_uncontrolled(controlled, 0.0, x0, g, 10, seed=1),
        lambda x0: simulate_controlled(controlled, ConstantPolicy(2), 0.0, x0, g, 10, seed=1),
    ):
        x0 = np.full(shape, 0.25)
        batch = simulate(x0)
        x0[...] = 9.0
        assert np.all(batch.states[:, 0, 0] == 0.25)


def _path_major(batch):
    """The same batch held path-major: C-contiguous copies of every field."""
    copy = PathBatch(
        grid=batch.grid,
        states=np.ascontiguousarray(batch.states),
        increments=np.ascontiguousarray(batch.increments),
        controls=None if batch.controls is None else np.ascontiguousarray(batch.controls),
    )
    assert copy.states.flags.c_contiguous and copy.increments.flags.c_contiguous
    return copy


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(200, 3000),
    steps=st.integers(1, 8),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_path_major_copy_gives_the_same_bits(n, steps, d, seed):
    spec = build_builtin("controlled_drift_abs", {"d": d})
    policy = _SignPolicy(spec.controls.k)
    g = TimeGrid(0.0, 1.0, steps)
    free = simulate_uncontrolled(spec, 0.0, [0.1] * d, g, n, seed=seed)
    steered = simulate_controlled(spec, policy, 0.0, [0.1] * d, g, n, seed=seed)

    def same_bits(a, b):
        return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()

    assert same_bits(girsanov_log_terms(spec, _path_major(steered)), girsanov_log_terms(spec, steered))
    basis = RegressionBasis(kind="polynomial", degree=2)
    a = solve_rbsde(spec, free, basis)
    b = solve_rbsde(spec, _path_major(free), basis)
    assert same_bits(a.y_nodes, b.y_nodes)
    assert same_bits(a.diagnostics["mean_abs_z"], b.diagnostics["mean_abs_z"])


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_diagonal_euler_step_equals_sigma_apply_bitwise(d):
    spec = build_builtin("controlled_drift_abs", {"d": d})
    assert spec.coefficients.sigma_diagonal
    rng = np.random.default_rng(d)
    n = 200_000

    def signed(shape):
        """Both signs, magnitudes 1e-3 .. 1e3, about a tenth of them +0.0 or -0.0."""
        vals = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
        zero = rng.random(shape) < 0.1
        vals[zero] = rng.choice([0.0, -0.0], shape)[zero]
        return vals

    sig = rng.choice([0.0, -0.0], (n, d, d))
    sig[:, np.arange(d), np.arange(d)] = signed((n, d))
    V = signed((n, d))
    product = np.diagonal(sig, axis1=1, axis2=2) * V
    assert np.any((product == 0.0) & np.signbit(product))  # the +0.0 rule has work to do
    for s in (sig, np.broadcast_to(sig[0], (n, d, d))):
        got = _diffusion(spec, s, V)
        assert got.tobytes() == sigma_apply(s, V).tobytes()
