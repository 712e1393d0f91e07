"""Regression Monte-Carlo backward solver."""

from __future__ import annotations

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlstop.hamilton import TruncationIndex
from ctrlstop.mc import (
    COND_THRESHOLD,
    RegressionBasis,
    SingularRegressionError,
    _design,
    _regress,
    skorokhod_residual,
    solve_rbsde,
    truncation_ladder_mc,
)
from ctrlstop.model import Box, build_builtin
from ctrlstop.paths import TimeGrid, simulate_uncontrolled
from oracles import random_1d_spec

CLOSED_FORM_ATM_PUT = 0.0797884560802865
SHARES = st.integers(0, 20).map(lambda k: k / 20)


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
    assert not np.any(np.signbit(K))
    assert np.count_nonzero(K) > 0
    assert skorokhod_residual(result) == 0.0
    # every written entry, not only the positive ones, sits on the obstacle bit for bit
    pushed = K != 0.0
    assert np.array_equal(result.y_nodes[pushed].view(np.int64), result.obstacle_nodes[pushed].view(np.int64))


@settings(max_examples=25, deadline=None)
@given(
    p=st.lists(SHARES, min_size=9, max_size=9),
    basis=st.sampled_from([RegressionBasis(cells_per_axis=10), RegressionBasis(kind="polynomial", degree=3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_problems_keep_the_backward_invariants(p, basis, seed):
    spec = random_1d_spec(p)
    batch = _batch(spec, [0.0], steps=10, count=2000, seed=seed)
    result = solve_rbsde(spec, batch, basis)
    assert np.array_equal(result.y_nodes[:, -1], spec.g(batch.states[:, -1]))
    assert np.all(result.y_nodes >= result.obstacle_nodes)
    assert skorokhod_residual(result) == 0.0
    K = result.k_increments
    assert np.all(K >= 0.0)
    assert np.array_equal(result.y_nodes[K > 0], result.obstacle_nodes[K > 0])


def test_terminal_slice_is_exact():
    spec = build_builtin("decaying_obstacle")
    batch = _batch(spec, [1.0], steps=10, count=500, seed=4)
    result = solve_rbsde(spec, batch)
    XT = batch.states[:, -1]
    assert np.array_equal(result.y_nodes[:, -1], spec.g(XT))
    assert np.array_equal(result.obstacle_nodes[:, -1], spec.h(1.0, XT))
    assert result.diagnostics["mean_abs_z"][-1] == 0.0


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
    # 0.04-wide cells on the domain [-3, 5], fine enough where the paths live
    local = solve_rbsde(spec, batch, RegressionBasis(cells_per_axis=200))
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


def test_dominating_generator_rejects_a_truncation():
    spec = build_builtin("controlled_drift_abs", {"h_floor": 0.8})
    batch = _batch(spec, [0.0], steps=4, count=200, seed=7)
    with pytest.raises(ValueError, match="takes no truncation"):
        solve_rbsde(spec, batch, trunc=TruncationIndex(1, 1), generator="dominating")


def test_truncation_is_bitwise_inert_once_cutoffs_cover_the_paths():
    spec = _drift_reward_spec()
    batch = _batch(spec, [0.0], steps=10, count=2000, seed=8)
    base = solve_rbsde(spec, batch)
    damped = solve_rbsde(spec, batch, trunc=TruncationIndex.covering(float(np.max(np.abs(batch.states)))))
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


def test_ladder_exhaustion_covers_the_paths_beyond_the_box():
    # from x0 = 3.5 the paths leave the [-4, 4] box, so a pair covering the box would still cut
    spec = _drift_reward_spec()
    batch = _batch(spec, [3.5], steps=25, count=4000, seed=1)
    assert float(np.max(np.abs(batch.states))) > TruncationIndex.covering(spec.domain.radius).m + 1
    basis = RegressionBasis(cells_per_axis=25)
    report = truncation_ladder_mc(spec, batch, basis, n_list=(1, 5), m_list=(1, 5))
    assert report.exhaustion_gap == 0.0


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


def _stacked_design(Xs, degree):
    # the np.stack construction _design replaced, kept as its oracle
    n, d = Xs.shape
    cols = [np.ones(n)]
    prev = [(cols[0], 0)]
    for _ in range(degree):
        prev = [(col * Xs[:, j], j) for col, first in prev for j in range(first, d)]
        cols.extend(col for col, _ in prev)
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("d,degree", [(1, 0), (1, 6), (2, 3), (3, 4), (5, 3)])
def test_design_equals_the_stacked_columns_bitwise(d, degree):
    Xs = np.random.default_rng(16).normal(size=(257, d))
    phi = _design(Xs, degree)
    assert phi.shape == (257, len(list(itertools.combinations_with_replacement(range(d + 1), degree))))
    assert np.array_equal(phi, _stacked_design(Xs, degree))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(200, 2000),
    d=st.integers(1, 3),
    degree=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_projector_matches_least_squares(n, d, degree, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, size=d) + rng.uniform(-1.0, 1.0, size=d)
    targets = np.column_stack([np.sin(X).sum(axis=1), rng.normal(size=n)])
    # raw monomials span the same space as the standardised basis
    raw = np.column_stack([
        np.prod(X[:, list(idx)], axis=1)
        for k in range(degree + 1)
        for idx in itertools.combinations_with_replacement(range(d), k)
    ])
    fitted = raw @ np.linalg.lstsq(raw, targets, rcond=None)[0]
    basis = RegressionBasis(kind="polynomial", degree=degree)
    with mock.patch("numpy.linalg.svd", side_effect=AssertionError("SVD fallback taken")):
        project, diag = _regress(basis, Box([-9.0] * d, [9.0] * d), X, node=0)
        projected = project(targets)
    assert diag["cells"] == raw.shape[1]
    assert 1.0 <= diag["cond"] <= 1e6
    assert np.max(np.abs(projected - fitted)) <= 1e-9 * np.max(np.abs(targets))


def test_ill_conditioned_slice_falls_back_to_the_svd():
    x = np.random.default_rng(17).uniform(size=2000)
    X = x[:, None]
    basis = RegressionBasis(kind="polynomial", degree=16)
    project, diag = _regress(basis, Box([0.0], [1.0]), X, node=0)
    # the SVD path reports the design's own singular-value ratio
    sv = np.linalg.svd(_design((X - X.mean(axis=0)) / X.std(axis=0), 16), full_matrices=False)[1]
    assert diag["cond"] == sv[0] / sv[-1]
    assert 1e6 < diag["cond"] < COND_THRESHOLD
    # Legendre polynomials of the same degree span the same space, well conditioned
    targets = np.column_stack([np.exp(x) * np.sin(7.0 * x), np.random.default_rng(18).normal(size=2000)])
    legendre = np.polynomial.legendre.legvander(2.0 * x - 1.0, 16)
    fitted = legendre @ np.linalg.lstsq(legendre, targets, rcond=None)[0]
    assert np.max(np.abs(project(targets) - fitted)) <= 1e-8


def test_result_arrays_are_read_only_views_of_time_major_slices():
    spec = build_builtin("decaying_obstacle", {"beta": 2.0})
    batch = _batch(spec, [1.0], steps=8, count=600, seed=19)
    result = solve_rbsde(spec, batch, RegressionBasis(kind="polynomial", degree=3))
    n, N = 600, 8
    assert result.y_nodes.shape == result.k_increments.shape == result.obstacle_nodes.shape == (n, N + 1)
    mean_abs_z = result.diagnostics["mean_abs_z"]
    assert mean_abs_z.shape == (N + 1,)
    for arr in (result.y_nodes, mean_abs_z, result.k_increments, result.obstacle_nodes, result.y0_samples):
        assert not arr.flags.writeable
        assert arr.base is None or not arr.base.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    for i, t in enumerate(batch.grid.nodes):
        assert np.array_equal(result.obstacle_nodes[:, i], spec.h(float(t), batch.states[:, i]))
    assert np.array_equal(result.y_nodes[:, N], spec.g(batch.states[:, N]))
    assert mean_abs_z[N] == 0.0


def test_mean_abs_z_replays_each_slice_bit_for_bit():
    # Z_i is not kept; regressing slice i again from the stored Y_{i+1}
    # gives the same Z, so the same mean norm
    spec = build_builtin("controlled_drift_abs", {"d": 2})
    batch = _batch(spec, [0.5, 0.5], steps=6, count=3000, seed=21)
    basis = RegressionBasis(kind="polynomial", degree=3)
    result = solve_rbsde(spec, batch, basis)
    for i in range(1, 6):
        project, _ = _regress(basis, spec.domain, np.ascontiguousarray(batch.states[:, i]), i)
        y_next = result.y_nodes[:, i + 1]
        z = project((y_next - project(y_next))[:, None] * batch.increments[:, i]) / batch.grid.dt
        assert np.mean(np.linalg.norm(z, axis=1)) == result.diagnostics["mean_abs_z"][i] > 0.0


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


def _floor_spec(h):
    """controlled_drift_abs at d=1 with a binding floor 0.8, written as ``h``."""
    return build_builtin(
        "custom",
        {
            "dim": 1,
            "T": 1.0,
            "sigma": ["1"],
            "f": ["a1"],
            "gamma": "0",
            "g": "abs(x1)",
            "h": h,
            "controls": [[-1.0], [0.0], [1.0]],
            "growth": {"C_f": 1.0, "C_sigma_inv": 1.0, "C_poly": 1.0, "p": 1.0},
            "lo": -4.0,
            "hi": 4.0,
            "params": {"h_floor": 0.8},
        },
    )


def _floor_pair():
    """The same floor read as state-free and as reading x1."""
    free, dense = _floor_spec("h_floor"), _floor_spec("h_floor+0*x1")
    assert "x" not in free.coefficients.reads("h") and "x" in dense.coefficients.reads("h")
    return free, dense


def test_state_free_obstacle_gives_the_bits_of_a_per_path_one():
    free, dense = _floor_pair()
    batch = _batch(free, [0.0], steps=12, count=6000, seed=23)
    basis = RegressionBasis(kind="polynomial", degree=4)
    a = solve_rbsde(free, batch, basis)
    b = solve_rbsde(dense, batch, basis)
    assert np.count_nonzero(a.k_increments) > 1000
    for name in ("y_nodes", "k_increments", "obstacle_nodes", "y0_samples"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape
        assert np.array_equal(x.view(np.int64), y.view(np.int64)), name
    assert a.y0 == b.y0 and a.se_y0 == b.se_y0
    K = a.k_increments
    pushed = K != 0.0
    assert np.array_equal(a.y_nodes[pushed].view(np.int64), a.obstacle_nodes[pushed].view(np.int64))
    assert not np.any(np.signbit(K))


def test_state_free_obstacle_is_stored_once_per_node():
    free, dense = _floor_pair()
    n, N = 20000, 10
    batch = _batch(free, [0.0], steps=N, count=n, seed=24)
    basis = RegressionBasis(kind="polynomial", degree=3)
    solve_rbsde(free, batch, basis)  # first calls out of the measurement

    def traced_peak(spec):
        tracemalloc.start()
        try:
            result = solve_rbsde(spec, batch, basis)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    a, peak_free = traced_peak(free)
    b, peak_dense = traced_peak(dense)
    assert a.obstacle_nodes.strides[0] == 0
    assert b.obstacle_nodes.strides[0] != 0
    # H shrinks from N+1 rows of n floats to N+1 rows of one
    assert peak_dense - peak_free >= (N + 1) * (n - 1) * 8

