"""Finite-difference solver: monotonicity, projection, truncation, 2-d."""

from __future__ import annotations

import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlstop import pde
from ctrlstop.expr import parse_expression
from ctrlstop.hamilton import TruncationIndex
from ctrlstop.model import Box, build_builtin
from ctrlstop.paths import TimeGrid
from ctrlstop.pde import (
    SpaceTimeGrid,
    extract_policy,
    ladder,
    make_grid,
    solve,
)
from ctrlstop.strategy import evaluate
from oracles import benchmark_spec, random_1d_spec

CLOSED_FORM_ATM_PUT = 0.0797884560802865  # sigma sqrt(T / (2 pi)) at K = x0


def _custom(**over):
    base = {
        "dim": 1,
        "T": 1.0,
        "sigma": ["0.2"],
        "f": ["0"],
        "gamma": "0",
        "g": "x1",
        "h": "-1000000000",
        "controls": [[0.0]],
        "growth": {"C_f": 0.0, "C_sigma_inv": 5.0, "C_poly": 1e9, "p": 1.0},
        "lo": -6.0,
        "hi": 6.0,
    }
    base.update(over)
    return build_builtin("custom", base)


def test_linear_function_is_invariant_in_the_core():
    spec = _custom()
    grid = make_grid(spec, 121)
    field = solve(spec, grid)
    core = grid.core_mask()
    x = grid.nodes()[:, 0].reshape(grid.shape)
    err = np.abs(field.values[0] - x)[core]
    assert np.max(err) < 1e-8


def test_terminal_slice_is_exact():
    spec = build_builtin("decaying_obstacle")
    grid = make_grid(spec, 101)
    field = solve(spec, grid)
    assert np.array_equal(field.values[-1], spec.g(grid.nodes()).reshape(grid.shape))


def _replay(spec, field, trunc=None, generator="hstar"):
    """Oracle: rerun the explicit sweep on a solved field, step by step.

    Returns (vtilde [nt, *shape], h [nt+1, *shape]): the pre-projection step
    values and the obstacle slices, as the solver's own loop sees them.
    """
    grid = field.grid
    sch = pde._Scheme(spec, grid, trunc, generator)
    times = grid.times
    vtilde = np.empty((grid.nt, *grid.shape))
    h_all = np.empty((grid.nt + 1, *grid.shape))
    for i in range(grid.nt):
        vtilde[i] = sch.step(field.values[i + 1], float(times[i + 1]))[0]
        h_all[i] = sch.at("h", float(times[i]))
    h_all[grid.nt] = sch.at("h", float(times[grid.nt]))
    return vtilde, h_all


def _replayed_binding(spec, field, trunc=None, generator="hstar"):
    vtilde, h_all = _replay(spec, field, trunc, generator)
    return (h_all[:-1] - vtilde) > 1e-9 * (1.0 + float(np.max(np.abs(field.values))))


def _steep_obstacle():
    """Put obstacle rising towards t=0 with a small dominating constant, so
    the obstacle still binds under the dominating generator."""
    return _custom(
        g="max(1-x1,0)",
        h="max(1-x1,0)*(1+2*(1-t))",
        growth={"C_f": 0.0, "C_sigma_inv": 5.0, "C_poly": 0.05, "p": 1.0},
        lo=-3.0,
        hi=5.0,
    )


@pytest.mark.parametrize(
    "make_spec, nx, trunc, generator",
    [
        (lambda: build_builtin("decaying_obstacle", {"beta": 2.0}), 101, None, "hstar"),
        (lambda: build_builtin("controlled_drift_abs", {"d": 2, "h_floor": 0.8}), 21, None, "hstar"),
        (lambda: build_builtin("controlled_drift_abs", {"h_floor": 0.8}), 81, TruncationIndex(1, 1), "hstar"),
        (_steep_obstacle, 161, None, "dominating"),
        # 59 of its 171 positive pushes lie below the round-off floor
        (lambda: build_builtin("bachelier_put"), 401, None, "hstar"),
    ],
    ids=["1d", "2d", "truncated", "dominating", "sub-floor"],
)
def test_binding_record_equals_the_replayed_projection(make_spec, nx, trunc, generator):
    spec = make_spec()
    grid = make_grid(spec, nx, generator=generator)
    field = solve(spec, grid, trunc=trunc, generator=generator)
    expected = _replayed_binding(spec, field, trunc, generator)
    assert field.stop_mask.dtype == bool
    assert field.stop_mask.shape == (grid.nt + 1, *grid.shape)
    assert 0 < np.count_nonzero(expected) < expected.size
    assert np.array_equal(field.stop_mask[:-1], expected)
    assert np.all(field.stop_mask[-1])
    assert not field.stop_mask.flags.writeable


def test_solution_never_falls_below_the_obstacle():
    spec = build_builtin("decaying_obstacle", {"beta": 2.0})
    grid = make_grid(spec, 101)
    field = solve(spec, grid)
    _, h_all = _replay(spec, field)
    assert float(np.min(field.values - h_all)) >= 0.0


def test_projection_pins_binding_nodes_to_the_obstacle():
    spec = build_builtin("decaying_obstacle", {"beta": 2.0})
    grid = make_grid(spec, 101)
    field = solve(spec, grid)
    vtilde, h_all = _replay(spec, field)
    binding = vtilde < h_all[:-1]
    assert np.count_nonzero(binding) > 0
    assert np.array_equal(field.values[:-1][binding], h_all[:-1][binding])
    # the recorded region lies inside the strict set and pins the same way
    record = field.stop_mask[:-1]
    assert not np.any(record & ~binding)
    assert np.array_equal(field.values[:-1][record], h_all[:-1][record])


def test_dominating_field_stops_where_its_own_sweep_binds():
    spec = build_builtin("decaying_obstacle", {"beta": 2.0})
    grid = make_grid(spec, 81, generator="dominating")
    field = solve(spec, grid, generator="dominating")
    record = _replayed_binding(spec, field, generator="dominating")
    # replaying with the default generator marks stop nodes the dominating
    # sweep never projected
    assert np.count_nonzero(_replayed_binding(spec, field)) > 0
    assert np.array_equal(field.stop_mask[:-1], record)
    assert np.all(field.stop_mask[-1])
    # the field is its own strategy; extract_policy only hands it back
    assert extract_policy(spec, field) is field


def test_dominating_field_records_no_control():
    spec = build_builtin("controlled_drift_abs", {"h_floor": 0.8})
    grid = make_grid(spec, 81, generator="dominating")
    field = solve(spec, grid, generator="dominating")
    assert np.all(field.control == -1)
    with pytest.raises(ValueError, match="control indices must lie in"):
        evaluate(spec, field, TimeGrid(0.0, spec.horizon_T, 10), np.array([0.5]), 50, seed=0)


# a share in [0, 1] in steps of 1/20, printed as a short decimal literal
SHARES = st.integers(0, 20).map(lambda k: k / 20)


@settings(max_examples=25, deadline=None)
@given(p=st.lists(SHARES, min_size=9, max_size=9), lift=SHARES, share=SHARES)
def test_random_problems_keep_the_sweep_invariants(p, lift, share):
    spec = random_1d_spec(p)
    grid = make_grid(spec, 41)
    field = solve(spec, grid)
    nodes = grid.nodes()
    h_all = np.stack([spec.h(float(t), nodes).reshape(grid.shape) for t in grid.times])
    assert np.array_equal(field.values[-1], spec.g(nodes).reshape(grid.shape))
    assert np.all(field.values >= h_all)
    stop = field.stop_mask[:-1]
    assert np.array_equal(field.values[:-1][stop], h_all[:-1][stop])
    # the strategy's lookups at the nodes of a slice read that slice's records
    for i in {0, round(share * grid.nt), grid.nt}:
        t = float(grid.times[i])
        assert np.array_equal(field.stop_at(t, nodes), field.stop_mask[i])
        assert np.array_equal(field.control_indices(t, nodes), field.control[i])
    # comparison: a higher obstacle never lowers the value (check 11's tolerance)
    raised = solve(random_1d_spec(p, lift), grid)
    assert float(np.min(raised.values - field.values)) >= -1e-10


@settings(max_examples=25, deadline=None)
@given(p=st.lists(SHARES, min_size=9, max_size=9), c=st.sampled_from([0.25, 0.5, 1.0, 2.0]))
def test_random_problems_shift_with_their_rewards(p, c):
    """Adding c to both g and h adds c to the value, up to rounding (check 11's shift on random specs)."""
    spec = random_1d_spec(p)
    grid = make_grid(spec, 41)
    base = solve(spec, grid).values
    shifted = solve(random_1d_spec(p, shift=c), grid).values
    assert np.max(np.abs(shifted - (base + c))) <= 1e-12 * (1.0 + np.max(np.abs(base)))


def test_bachelier_value_near_closed_form():
    spec = build_builtin("bachelier_put")
    grid = make_grid(spec, 201)
    field = solve(spec, grid)
    v0 = field.at(0.0, [1.0])
    assert abs(v0 - CLOSED_FORM_ATM_PUT) / CLOSED_FORM_ATM_PUT < 2e-3
    assert field.scheme_meta["cfl_ratio"] <= 0.95


def test_put_without_decay_never_stops_early():
    spec = build_builtin("bachelier_put")
    field = solve(spec, make_grid(spec, 101))
    # interior nodes never bind; the replicated-edge boundary column may
    assert not np.any(field.stop_mask[:-1][:, 1:-1])
    assert not bool(field.stop_at(0.0, np.array([[1.0]]))[0])
    assert np.all(field.stop_mask[-1])


def test_decaying_obstacle_stops_deep_in_the_money():
    spec = build_builtin("decaying_obstacle", {"beta": 2.0})
    field = solve(spec, make_grid(spec, 161))
    assert np.any(field.stop_mask[0])
    assert bool(field.stop_at(0.0, np.array([[-2.0]]))[0])
    assert not bool(field.stop_at(0.0, np.array([[4.5]]))[0])


def _old_generator(spec, grid, W, t):
    """H* term of the explicit step, one control at a time (no truncation)."""
    X = grid.nodes()
    Wp = np.pad(W, 1, mode="edge")
    if grid.dim == 1:
        up, dn = [Wp[2:]], [Wp[:-2]]
    else:
        up, dn = [Wp[2:, 1:-1], Wp[1:-1, 2:]], [Wp[:-2, 1:-1], Wp[1:-1, :-2]]
    fwd = [(up[j] - W) / grid.dxs[j] for j in range(grid.dim)]
    bwd = [(dn[j] - W) / grid.dxs[j] for j in range(grid.dim)]
    best = np.full(grid.shape, -np.inf)
    for k in range(spec.controls.k):
        F, G = spec.control_rows(t, X, np.full(len(X), k))
        adv = np.zeros(grid.shape)
        for j in range(grid.dim):
            Fj = F[:, j].reshape(grid.shape)
            adv = adv + np.maximum(Fj, 0.0) * fwd[j] + np.maximum(-Fj, 0.0) * bwd[j]
        best = np.maximum(best, adv + G.reshape(grid.shape))
    return best


@pytest.mark.parametrize(
    "name, params, nx",
    [("decaying_obstacle", {"beta": 2.0}, 101), ("controlled_drift_abs", {"d": 2, "h_floor": 0.8}, 21)],
    ids=["1d", "2d"],
)
def test_stop_mask_equals_the_tolerance_rule_it_replaces(name, params, nx):
    # binding nodes store v = max(vtilde, h) = h exactly, so the former
    # "v - h <= eps" test held for every eps >= 0 and only binding mattered
    spec = build_builtin(name, params)
    grid = make_grid(spec, nx)
    field = solve(spec, grid)
    vtilde, h_all = _replay(spec, field)
    delta = 1e-9 * (1.0 + float(np.max(np.abs(field.values))))
    binding = (h_all[:-1] - vtilde) > delta
    assert 0 < np.count_nonzero(binding) < binding.size
    gen = np.stack([_old_generator(spec, grid, field.values[i + 1], t) for i, t in enumerate(grid.times[1:])])
    for eps in (None, 0.0, 1.0):
        eps_node = eps if eps is not None else 10.0 * grid.dt * (1.0 + np.abs(gen))
        old = binding & (field.values[:-1] - h_all[:-1] <= eps_node)
        assert np.array_equal(field.stop_mask[:-1], old)
    assert np.all(field.stop_mask[-1])


def test_extracted_control_pushes_away_from_the_origin():
    spec = build_builtin("controlled_drift_abs")
    field = solve(spec, make_grid(spec, 81))
    idx = field.control_indices(0.0, np.array([[2.0], [-2.0]]))
    assert idx[0] == 2 and idx[1] == 0  # +kappa right of 0, -kappa left


def test_truncation_ladder_is_monotone_and_exhausts():
    spec = build_builtin("controlled_drift_abs")
    grid = make_grid(spec, 81)
    report = ladder(spec, grid, n_list=(1, 2, 5), m_list=(1, 5))
    assert report.monotone
    assert report.violation_n == 0.0 and report.violation_m == 0.0
    # radius-5 cutoffs cover the [-4, 4] box entirely: bitwise recovery
    assert report.exhaustion_gap == 0.0
    # the tight cutoff visibly bites inside the reporting core
    assert report.sup_gap_core[(1, 1)] > 1e-6
    assert report.sup_gap_core[(5, 5)] == 0.0


def test_ladder_exhaustion_covers_the_corners_of_a_2d_box():
    # the corners of [-4, 4]^2 lie at |x| = 5.66, beyond the sup-norm radius 4
    spec = build_builtin("controlled_drift_abs", {"d": 2})
    report = ladder(spec, make_grid(spec, 41), n_list=(1, 5), m_list=(1, 5))
    assert report.exhaustion_gap == 0.0


def test_truncation_identity_holds_inside_the_radius():
    spec = build_builtin("controlled_drift_abs")
    grid = make_grid(spec, 81)
    base = solve(spec, grid)
    damped = solve(spec, grid, trunc=TruncationIndex(2, 2))
    x = grid.nodes()[:, 0]
    inside = np.abs(x) <= 2.0
    # one step from the terminal slice the damping has not yet propagated
    assert np.array_equal(
        damped.values[grid.nt - 1][inside], base.values[grid.nt - 1][inside]
    )
    assert not np.array_equal(damped.values[0], base.values[0])


def test_two_dimensional_solution_has_problem_symmetries():
    spec = build_builtin("controlled_drift_abs", {"d": 2})
    grid = make_grid(spec, 31)
    field = solve(spec, grid)
    for i in (0, grid.nt // 2):
        v = field.values[i]
        # axis exchange is bitwise; point reflection is not, because
        # linspace nodes are not exactly sign-symmetric
        assert np.array_equal(v, v.T)
        assert np.max(np.abs(v - v[::-1, ::-1])) <= 1e-13


def test_two_dimensional_cross_terms_preserve_linear_functions():
    spec = _custom(
        dim=2,
        sigma=["0.3", "0.15", "0.15", "0.3"],
        f=["0", "0"],
        g="x1+x2",
        controls=[[0.0, 0.0]],
        lo=-8.0,
        hi=8.0,
    )
    grid = make_grid(spec, 41)
    field = solve(spec, grid)
    core = grid.core_mask()
    nodes = grid.nodes()
    target = (nodes[:, 0] + nodes[:, 1]).reshape(grid.shape)
    assert np.max(np.abs(field.values[0] - target)[core]) < 1e-8


def test_cross_stencil_requires_diagonal_dominance():
    spec = _custom(
        dim=2,
        sigma=["1", "0", "2", "0.1"],
        f=["0", "0"],
        g="0",
        controls=[[0.0, 0.0]],
        lo=-2.0,
        hi=2.0,
    )
    grid = SpaceTimeGrid(box=spec.domain, nx=(21, 21), nt=400, horizon_T=1.0)
    with pytest.raises(ValueError, match="diagonally dominant"):
        solve(spec, grid)


def test_dimension_and_generator_guards():
    spec3 = _custom(
        dim=3,
        sigma=[str(float(i == j)) for i in range(3) for j in range(3)],
        f=["0", "0", "0"],
        g="0",
        controls=[[0.0, 0.0, 0.0]],
        lo=-2.0,
        hi=2.0,
    )
    grid3 = SpaceTimeGrid(box=spec3.domain, nx=(5, 5, 5), nt=50, horizon_T=1.0)
    with pytest.raises(ValueError, match="d <= 2 only"):
        solve(spec3, grid3)
    spec1 = build_builtin("bachelier_put")
    with pytest.raises(ValueError, match="generator must be one of"):
        solve(spec1, make_grid(spec1, 51), generator="bogus")
    with pytest.raises(ValueError, match="grid dimension"):
        solve(spec1, grid3)


def _correlated():
    """controlled_drift_abs at d=2 with a nonzero off-diagonal covariance, A_12 = 0.6."""
    return _custom(
        dim=2,
        sigma=["1", "0.3", "0.3", "1"],
        f=["a1", "a2"],
        g="sqrt(x1*x1+x2*x2)",
        h="0.8",
        controls=[[a1, a2] for a1 in (-1.0, 0.0, 1.0) for a2 in (-1.0, 0.0, 1.0)],
        growth={"C_f": 1.5, "C_sigma_inv": 1.5, "C_poly": 10.0, "p": 1.0},
        lo=-4.0,
        hi=4.0,
    )


@pytest.mark.parametrize(
    "make_spec, nx, generator",
    [
        (lambda: build_builtin("controlled_drift_abs", {"h_floor": 0.8}), 81, "hstar"),
        (lambda: build_builtin("bachelier_put"), 81, "dominating"),
        (_correlated, 41, "hstar"),
    ],
    ids=["hstar-1d", "dominating-1d", "correlated-2d"],
)
def test_make_grid_takes_the_smallest_nt_the_step_accepts(make_spec, nx, generator):
    # the grid is sized by the step's own outflow rate, cross term included
    spec = make_spec()
    grid = make_grid(spec, nx, generator=generator)
    fitted = solve(spec, grid, generator=generator).scheme_meta["cfl_ratio"]
    coarser = solve(spec, make_grid(spec, nx, nt=grid.nt - 1), generator=generator).scheme_meta["cfl_ratio"]
    assert fitted <= 0.9 < coarser


def test_dominating_generator_rejects_a_truncation():
    # phi has no truncated form, so a trunc would label a field it never shaped
    spec = build_builtin("controlled_drift_abs", {"h_floor": 0.8})
    grid = make_grid(spec, 81, generator="dominating")
    with pytest.raises(ValueError, match="takes no truncation"):
        solve(spec, grid, trunc=TruncationIndex(1, 1), generator="dominating")


def test_cfl_violation_is_reported():
    spec = build_builtin("bachelier_put")
    grid = SpaceTimeGrid(box=spec.domain, nx=(101,), nt=1, horizon_T=1.0)
    with pytest.raises(ValueError, match="CFL violation"):
        solve(spec, grid)


def test_dominating_generator_needs_diagonal_sigma():
    # diagonal as sigma_diagonal reads it, so an off-diagonal of 1e-13 is refused too
    for sigma in (["1", "0.5", "0.5", "1"], ["1", "0.3", "0", "1"], ["1", "1e-13", "0", "1"]):
        spec = _custom(
            dim=2,
            sigma=sigma,
            f=["0", "0"],
            g="0",
            controls=[[0.0, 0.0]],
            lo=-2.0,
            hi=2.0,
            growth={"C_f": 0.0, "C_sigma_inv": 2.0, "C_poly": 1.0, "p": 1.0},
        )
        grid = SpaceTimeGrid(box=spec.domain, nx=(15, 15), nt=600, horizon_T=1.0)
        with pytest.raises(ValueError, match="require diagonal sigma"):
            solve(spec, grid, generator="dominating")
        # sizing a grid builds the scheme, so make_grid raises the same error
        with pytest.raises(ValueError, match="require diagonal sigma"):
            make_grid(spec, 15, generator="dominating")


def test_dominating_generator_bounds_the_value_on_the_same_grid():
    spec = build_builtin("bachelier_put")
    grid = make_grid(spec, 81, generator="dominating")
    v_phi = solve(spec, grid, generator="dominating").values
    v_h = solve(spec, grid).values
    assert float(np.min(v_phi - v_h)) >= -1e-10


def test_comparison_check_detects_order_both_ways():
    """The decaying obstacle's value against its twin with the same bump added to g and h."""

    def decaying(bump=""):
        return _custom(
            sigma=["sigma0"], g="max(K-x1,0)" + bump, h="max(K-x1,0)*(1+beta*(T-t))" + bump,
            params={"sigma0": 0.2, "K": 1.0, "beta": 0.5, "T": 1.0}, lo=-3.0, hi=5.0,
        )

    low, high = decaying(), decaying("+0.25*exp(-x1*x1)")
    grid = make_grid(low, 61)
    v_low, v_high = (solve(spec, grid).values for spec in (low, high))
    assert float(np.max(v_low - v_high)) <= 1e-10
    assert float(np.max(v_high - v_low)) > 0.1


def test_time_free_state_dependent_sigma_is_built_once_with_the_same_bits():
    spec = _custom(
        sigma=["0.3+0.1*tanh(x1)"], f=["a1"], g="abs(x1)", h="0.5", controls=[[-1.0], [0.0], [1.0]],
        growth={"C_f": 1.0, "C_sigma_inv": 5.0, "C_poly": 10.0, "p": 1.0},
    )
    assert spec.coefficients.reads("sigma") == {"x"}
    times = []

    def counted(sigma):
        def wrapped(t, X):
            times.append(t)
            return sigma(t, X)

        return wrapped

    def with_sigma(**over):
        return dataclasses.replace(spec, coefficients=dataclasses.replace(spec.coefficients, **over))

    read_t = parse_expression("0.3+0.1*tanh(x1)+0*t")
    assert dataclasses.replace(spec.coefficients, sigma_exprs=(read_t,)).reads("sigma") == {"t", "x"}
    grid = make_grid(spec, 81)
    hoisted = solve(with_sigma(sigma=counted(spec.coefficients.sigma)), grid)
    assert times == [0.0]
    times.clear()
    # a twin whose expression also names t is built per slice
    per_slice = solve(with_sigma(sigma=counted(spec.coefficients.sigma), sigma_exprs=(read_t,)), grid)
    assert len(times) == grid.nt
    for name in ("values", "control", "stop_mask"):
        assert getattr(hoisted, name).tobytes() == getattr(per_slice, name).tobytes()


@pytest.mark.parametrize("name", ["decaying_obstacle", "policy-2d-localvol"])
def test_a_solve_leaves_no_reference_cycle(name):
    """The scheme holds values, not closures over itself, so it is freed without a GC pass."""
    spec = build_builtin("decaying_obstacle", {"beta": 2.0}) if name == "decaying_obstacle" else benchmark_spec(name)
    gc.collect()
    gc.disable()
    try:
        grid = make_grid(spec, 41)
        assert gc.collect() == 0
        solve(spec, grid)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("d", [1, 2])
def test_product_form_covariance_matches_the_einsum_bitwise(d):
    sig = np.random.default_rng(3 + d).standard_normal((257, d, d)) * np.exp(
        np.random.default_rng(9).uniform(-20.0, 20.0, size=(257, 1, 1))
    )
    A = np.einsum("nij,nkj->nik", sig, sig)
    diag, cross = pde._covariance(sig)
    for j in range(d):
        assert np.array_equal(diag[j], A[:, j, j])
    if d == 2:
        assert np.array_equal(cross, A[:, 0, 1])
    else:
        assert cross is None


def _nearest_node(field, records, t, X):
    """``records`` on slice t at each row's nearest node: per axis rint, clipped to the box, one index tuple."""
    g = field.grid
    idx = tuple(
        np.clip(np.rint((X[:, j] - g.box.lo[j]) / g.dxs[j]).astype(np.int64), 0, g.nx[j] - 1) for j in range(g.dim)
    )
    return records[g.time_index(t)][idx]


@pytest.mark.parametrize("d", [1, 2])
@settings(max_examples=30, deadline=None)
@given(
    nx=st.lists(st.integers(3, 12), min_size=2, max_size=2),
    nt=st.integers(1, 6),
    lo=st.lists(st.integers(-16, 16), min_size=2, max_size=2),
    log_dx=st.integers(-3, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_field_lookups_equal_the_per_axis_nearest_node(d, nx, nt, lo, log_dx, seed):
    # a power-of-two spacing from a multiple of 1/4, so half-node points are exact ties
    dx = 2.0**log_dx
    nx = tuple(nx[:d])
    lo = np.array(lo[:d]) / 4.0
    box = Box(lo, lo + (np.array(nx) - 1) * dx)
    rng = np.random.default_rng(seed)
    shape = (nt + 1, *nx)
    field = pde.ValueField(
        grid=SpaceTimeGrid(box=box, nx=nx, nt=nt, horizon_T=1.0),
        values=rng.standard_normal(shape),
        stop_mask=rng.random(shape) < 0.5,
        control=rng.integers(-1, 9, size=shape).astype(np.int16),
        scheme_meta={},
    )
    span = box.hi - box.lo
    ties = lo + (rng.integers(-2, max(nx) + 2, size=(40, d)) + 0.5) * dx
    assert np.all((ties - lo) / dx % 1.0 == 0.5)
    X = np.concatenate(
        [
            rng.uniform(lo - span, box.hi + span, size=(40, d)),  # inside and outside the box
            ties,
            rng.choice([-1e9, 1e9], size=(4, d)),  # far outside
        ]
    )
    for t in (*rng.uniform(-0.2, 1.2, size=3), 0.0, 1.0):
        for got, records in ((field.stop_at(t, X), field.stop_mask), (field.control_indices(t, X), field.control)):
            ref = _nearest_node(field, records, t, X)
            assert got.dtype == records.dtype and np.array_equal(got, ref)
        ref = _nearest_node(field, field.values, t, X)
        assert [field.at(t, x) for x in X] == ref.tolist()


def test_grid_construction_and_lookup():
    spec = build_builtin("bachelier_put")
    grid = make_grid(spec, 51, nt=777)
    assert grid.nt == 777
    assert grid.nx == (51,)
    assert grid.time_index(-1.0) == 0
    assert grid.time_index(0.5) == 388  # 388.5 rounds half to even
    assert grid.time_index(0.5005) == 389
    assert grid.time_index(9.0) == 777
    field = solve(spec, make_grid(spec, 51))
    assert field.at(1.0, [1.0]) == 0.0  # terminal payoff at the strike
    # a record holding each node's own index reads back the nearest node
    nodes = np.tile(np.arange(51), (field.grid.nt + 1, 1))
    assert field._lookup(nodes, 0.5, [99.0]).tolist() == [50]
    assert field._lookup(nodes, 0.5, [-99.0]).tolist() == [0]
    i = field._lookup(nodes, 0.5, np.array([[-99.0], [1.0], [1.1], [99.0]]))
    assert i.tolist() == [0, 25, 26, 50]  # 1.1 sits at node 25.625
    with pytest.raises(ValueError, match="at least 3 nodes"):
        SpaceTimeGrid(box=spec.domain, nx=(2,), nt=10, horizon_T=1.0)
    with pytest.raises(ValueError, match="one node count per axis"):
        SpaceTimeGrid(box=spec.domain, nx=(5, 5), nt=10, horizon_T=1.0)
