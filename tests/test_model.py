"""Problem specification, builtin families, and coefficient validation."""

from __future__ import annotations

import dataclasses
import inspect
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlstop import acceptance, model
from ctrlstop.expr import parse_expression
from ctrlstop.model import (
    Box,
    CoefficientField,
    ControlSet,
    Growth,
    ProblemSpec,
    build_builtin,
    compile_coefficients,
    dominating_constant,
    dominating_generator_batch,
    dominating_weights,
    validate,
    _sample_points,
)
from oracles import benchmark_spec, per_control

BUILTINS = ("bachelier_put", "controlled_drift_abs", "decaying_obstacle")


@pytest.mark.parametrize("name", BUILTINS)
def test_builtins_pass_validation(name):
    spec = build_builtin(name)
    report = validate(spec, samples=1024, seed=0)
    assert report.passed, report.render()


def test_control_set_shapes_and_lookup():
    cs = ControlSet([-1.0, 0.0, 1.0])
    assert cs.k == 3 and cs.ka == 1
    assert cs.points.shape == (3, 1)
    assert np.flatnonzero((cs.points == [0.0]).all(axis=1)).tolist() == [1]
    assert np.flatnonzero((cs.points == [0.5]).all(axis=1)).size == 0


def test_control_set_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate"):
        ControlSet([[1.0], [1.0]])
    with pytest.raises(ValueError, match="non-empty"):
        ControlSet(np.zeros((0, 1)))
    with pytest.raises(ValueError, match="finite"):
        ControlSet([np.inf])


def test_growth_constraints():
    with pytest.raises(ValueError, match="p must be >= 1"):
        Growth(C_f=1.0, C_sigma_inv=1.0, C_poly=1.0, p=0.5)
    with pytest.raises(ValueError, match="finite and >= 0"):
        Growth(C_f=-1.0, C_sigma_inv=1.0, C_poly=1.0, p=1.0)


def test_box_geometry():
    with pytest.raises(ValueError, match="lo < hi"):
        Box(np.array([1.0]), np.array([1.0]))
    b = Box(np.array([-3.0, -1.0]), np.array([2.0, 5.0]))
    assert b.dim == 2
    # the Euclidean norm of the farthest corner (3, 5), the norm the cutoffs measure
    assert b.radius == math.sqrt(34.0)


def test_spec_rejects_dimension_mismatch():
    spec = build_builtin("bachelier_put")
    with pytest.raises(ValueError, match="domain dimension"):
        ProblemSpec(
            dim=2,
            horizon_T=1.0,
            coefficients=spec.coefficients,
            controls=spec.controls,
            growth=spec.growth,
            domain=spec.domain,
        )


def test_unknown_builtin_and_parameters():
    with pytest.raises(ValueError, match="unknown builtin"):
        build_builtin("nope")
    with pytest.raises(ValueError, match="unknown parameter 'vol'"):
        build_builtin("bachelier_put", {"vol": 0.3})
    with pytest.raises(ValueError, match="missing parameters"):
        build_builtin("custom", {"dim": 1})


def _box_spec(lo, hi):
    return build_builtin(
        "custom",
        {
            "dim": 2,
            "T": 1.0,
            "sigma": ["1", "0", "0", "1"],
            "f": ["a1", "a1"],
            "gamma": "0",
            "g": "0",
            "h": "0",
            "controls": [[0.0]],
            "growth": {"C_f": 1.0, "C_sigma_inv": 1.0, "C_poly": 1.0, "p": 1.0},
            "lo": lo,
            "hi": hi,
        },
    )


def test_custom_box_broadcasts_each_bound_on_its_own():
    box = _box_spec(-1.0, [1.0, 2.0]).domain
    assert np.array_equal(box.lo, [-1.0, -1.0]) and np.array_equal(box.hi, [1.0, 2.0])
    box = _box_spec([-1.0, -2.0], 3.0).domain
    assert np.array_equal(box.lo, [-1.0, -2.0]) and np.array_equal(box.hi, [3.0, 3.0])


@pytest.mark.parametrize("lo, hi, key", [([-1.0, -2.0, -3.0], 1.0, "lo"), (-1.0, [1.0, 2.0, 3.0], "hi")])
def test_custom_box_rejects_a_bound_of_the_wrong_length(lo, hi, key):
    with pytest.raises(ValueError, match=f"custom spec {key} needs 1 or 2 entries"):
        _box_spec(lo, hi)


def test_controlled_drift_control_grid():
    spec = build_builtin("controlled_drift_abs", {"d": 2, "kappa": 0.5})
    assert spec.controls.k == 9 and spec.controls.ka == 2
    # lexicographic ordering of the cartesian power
    assert np.array_equal(spec.controls.points[0], [-0.5, -0.5])
    assert np.array_equal(spec.controls.points[4], [0.0, 0.0])
    assert np.array_equal(spec.controls.points[-1], [0.5, 0.5])


def test_coefficient_evaluation_shapes():
    spec = build_builtin("controlled_drift_abs", {"d": 2})
    X = np.array([[0.5, -1.0], [2.0, 0.25]])
    sig = spec.sigma(0.0, X)
    assert sig.shape == (2, 2, 2)
    assert np.array_equal(sig[0], np.eye(2))
    drift, _ = spec.control_rows(0.0, X, [0, 0])
    assert drift.shape == (2, 2)
    assert np.array_equal(drift, np.full((2, 2), -1.0))
    assert np.array_equal(spec.g(X), np.hypot(X[:, 0], X[:, 1]))
    assert np.array_equal(spec.h(0.3, X), np.full(2, -10.0))


def test_time_dependence_flags():
    flat = build_builtin("bachelier_put").coefficients
    assert [flat.reads(name) for name in ("sigma", "f", "gamma", "g", "h")] == [set(), set(), set(), {"x"}, {"x"}]
    decaying = build_builtin("decaying_obstacle").coefficients
    assert decaying.reads("h") == {"t", "x"}
    assert not decaying.reads("sigma") and not decaying.reads("f") and not decaying.reads("gamma")


# (h, dim, params, whether h reads no x)
OBSTACLE_CASES = [
    ("h_floor", 1, {"h_floor": 0.8}, True),
    ("1+t", 1, {}, True),
    ("xs", 1, {"xs": 2.0}, True),
    ("x1", 1, {}, False),
    ("0*x1", 1, {}, False),
    ("max(x2,0)", 2, {}, False),
]


def _obstacle_case(h, dim, params):
    return compile_coefficients(
        dim=dim,
        sigma_exprs=tuple("1" if i == j else "0" for i in range(dim) for j in range(dim)),
        f_exprs=("0",) * dim,
        gamma_expr="0",
        g_expr="0",
        h_expr=h,
        params=params,
        ka=1,
    )


@pytest.mark.parametrize("h, dim, params, expected", OBSTACLE_CASES)
def test_state_free_obstacle_flag(h, dim, params, expected):
    assert ("x" not in _obstacle_case(h, dim, params).reads("h")) is expected


FORMER_FLAGS = ("sigma_constant", "sigma_diagonal", "f_t_free", "gamma_t_free", "h_t_free", "h_x_free")

# the six flags each field stored before they were derived, in FORMER_FLAGS order
FORMER_FLAG_VALUES = {
    "bachelier_put": (1, 1, 1, 1, 1, 0),
    "decaying_obstacle": (1, 1, 1, 1, 0, 0),
    "controlled_drift_abs-d1": (1, 1, 1, 1, 1, 1),
    "controlled_drift_abs-d2": (1, 1, 1, 1, 1, 1),
    "controlled_drift_abs-d5": (1, 1, 1, 1, 1, 1),
    "triangle-1d": (1, 1, 1, 1, 1, 1),
    "rbsde-5d": (1, 1, 1, 1, 1, 1),
    "policy-2d-localvol": (0, 1, 1, 1, 0, 0),
    "drift-reward": (1, 1, 1, 1, 1, 1),
    "constant-drift": (1, 1, 1, 1, 1, 1),
    "free-put": (1, 1, 1, 1, 1, 1),
    "h=h_floor": (1, 1, 1, 1, 1, 1),
    "h=1+t": (1, 1, 1, 1, 0, 1),
    "h=xs": (1, 1, 1, 1, 1, 1),
    "h=x1": (1, 1, 1, 1, 1, 0),
    "h=0*x1": (1, 1, 1, 1, 1, 0),
    "h=max(x2,0)": (1, 1, 1, 1, 1, 0),
}


def _fact_case(name):
    if name.startswith("h="):
        return next(_obstacle_case(h, dim, params) for h, dim, params, _ in OBSTACLE_CASES if name == f"h={h}")
    if name in ("triangle-1d", "rbsde-5d", "policy-2d-localvol"):
        return benchmark_spec(name).coefficients
    if name.startswith("controlled_drift_abs"):
        return build_builtin("controlled_drift_abs", {"d": int(name[-1])}).coefficients
    custom = {
        "drift-reward": acceptance._drift_reward_spec,
        "constant-drift": lambda: acceptance._constant_drift_spec(0.5),
        "free-put": lambda: acceptance._put_spec(acceptance.PUT_PAYOFF, "-1000000000"),
    }
    return (custom[name]() if name in custom else build_builtin(name)).coefficients


@pytest.mark.parametrize("name", sorted(FORMER_FLAG_VALUES))
def test_derived_facts_equal_the_former_flags(name):
    c = _fact_case(name)
    facts = (
        not c.reads("sigma"),
        c.sigma_diagonal,
        "t" not in c.reads("f"),
        "t" not in c.reads("gamma"),
        "t" not in c.reads("h"),
        "x" not in c.reads("h"),
    )
    assert tuple(int(f) for f in facts) == FORMER_FLAG_VALUES[name]


@pytest.mark.parametrize("flag", FORMER_FLAGS)
def test_structure_is_not_an_option(flag):
    c = build_builtin("bachelier_put").coefficients
    fields = {f.name: getattr(c, f.name) for f in dataclasses.fields(c) if f.init}
    with pytest.raises((TypeError, ValueError)):
        CoefficientField(**fields, **{flag: True})
    with pytest.raises((TypeError, ValueError)):
        dataclasses.replace(c, **{flag: True})


def test_replace_derives_the_facts_again():
    c = build_builtin("controlled_drift_abs", {"d": 2}).coefficients
    assert c.reads("h") == set() and c.sigma_diagonal
    assert dataclasses.replace(c, h_expr=parse_expression("x1")).reads("h") == {"x"}
    assert dataclasses.replace(c, h_expr=parse_expression("h_floor*t")).reads("h") == {"t"}
    assert dataclasses.replace(c, h_expr=parse_expression("x2+0*t")).reads("h") == {"t", "x"}
    one, zero = parse_expression("1"), parse_expression("0*x1")
    assert not dataclasses.replace(c, sigma_exprs=(one, zero, zero, one)).sigma_diagonal
    # control components are not state
    assert c.reads("f") == set()


def test_every_expression_and_the_params_are_required():
    params = inspect.signature(CoefficientField).parameters
    required = ("sigma_exprs", "f_exprs", "gamma_expr", "g_expr", "h_expr", "params")
    assert [name for name in required if params[name].default is not inspect.Parameter.empty] == []


@pytest.mark.parametrize("name", ("triangle-1d", "rbsde-5d", "policy-2d-localvol"))
def test_building_a_spec_parses_each_expression_once(name, monkeypatch):
    calls = []

    def counted(text, *args):
        calls.append(text)
        return parse_expression(text, *args)

    monkeypatch.setattr(model, "parse_expression", counted)
    c = benchmark_spec(name).coefficients
    assert len(calls) == len(c.sigma_exprs) + len(c.f_exprs) + 3


PUT_LIKE = {
    "dim": 1,
    "T": 1.0,
    "sigma": ("0.2",),
    "f": ("0",),
    "gamma": "0",
    "g": "max(1-x1,0)",
    "h": "max(1-x1,0)",
    "controls": [[0.0]],
    "growth": {"C_f": 0.0, "C_sigma_inv": 5.0, "C_poly": 1.0, "p": 1.0},
    "lo": -3.0,
    "hi": 5.0,
}


def test_a_parameter_named_x1_is_refused_not_read_as_a_constant_obstacle():
    # once built, h would read the state but count as state-free, so the
    # backward pass would store h of the first path for every path
    with pytest.raises(ValueError, match="shadow"):
        build_builtin("custom", {**PUT_LIKE, "params": {"x1": 2.0}})


@pytest.mark.parametrize("name", ["t", "x0", "x12", "a1"])
def test_parameter_names_that_shadow_a_variable_are_refused(name):
    with pytest.raises(ValueError, match="shadow"):
        build_builtin("custom", {**PUT_LIKE, "params": {name: 2.0}})
    # a name that only starts like a variable is a parameter
    assert build_builtin("custom", {**PUT_LIKE, "h": f"{name}y", "params": {f"{name}y": 0.5}})


def test_dominating_generator_closed_form():
    spec = build_builtin(
        "custom",
        {
            "dim": 1,
            "T": 1.0,
            "sigma": ["1"],
            "f": ["2*a1"],
            "gamma": "0",
            "g": "x1*x1",
            "h": "-100",
            "controls": [[-1.0], [1.0]],
            "growth": {"C_f": 2.0, "C_sigma_inv": 1.0, "C_poly": 1.0, "p": 2.0},
            "lo": -5.0,
            "hi": 5.0,
        },
    )
    assert dominating_constant(spec) == 2.0
    # c (1+|x|) |z| + c (1+|x|^p) with c=2, x=3, z=4, p=2
    drift_w, const_w = dominating_weights(spec, np.array([[3.0]]))
    assert (drift_w[0], const_w[0]) == (2.0 * 4.0, 2.0 * 10.0)
    assert dominating_generator_batch(spec, 0.0, np.array([[3.0]]), np.array([[4.0]]))[0] == 2.0 * 4.0 * 4.0 + 2.0 * 10.0
    batch = dominating_generator_batch(
        spec, 0.0, np.array([[3.0], [0.0]]), np.array([[4.0], [0.0]])
    )
    assert np.array_equal(batch, [52.0, 2.0])


def test_validation_catches_terminal_barrier_violation():
    spec = build_builtin(
        "custom",
        {
            "dim": 1,
            "T": 1.0,
            "sigma": ["1"],
            "f": ["0"],
            "gamma": "0",
            "g": "0",
            "h": "1",
            "controls": [[0.0]],
            "growth": {"C_f": 0.0, "C_sigma_inv": 1.0, "C_poly": 1.0, "p": 1.0},
            "lo": -2.0,
            "hi": 2.0,
        },
    )
    report = validate(spec, samples=256, seed=0)
    assert not report.passed
    names = {c.name for c in report.failing()}
    assert names == {"terminal_barrier"}


def test_validation_catches_singular_sigma():
    spec = build_builtin(
        "custom",
        {
            "dim": 2,
            "T": 1.0,
            "sigma": ["1", "1", "1", "1"],
            "f": ["0", "0"],
            "gamma": "0",
            "g": "0",
            "h": "-1",
            "controls": [[0.0, 0.0]],
            "growth": {"C_f": 0.0, "C_sigma_inv": 1.0, "C_poly": 1.0, "p": 1.0},
            "lo": -2.0,
            "hi": 2.0,
        },
    )
    report = validate(spec, samples=64, seed=0)
    assert not report.passed
    failing = {c.name for c in report.failing()}
    assert "sigma_inverse_bound" in failing or "sigma_condition_cap" in failing


def test_validation_catches_drift_growth_violation():
    spec = build_builtin(
        "custom",
        {
            "dim": 1,
            "T": 1.0,
            "sigma": ["1"],
            "f": ["x1*x1"],
            "gamma": "0",
            "g": "0",
            "h": "-1",
            "controls": [[0.0]],
            "growth": {"C_f": 1.0, "C_sigma_inv": 1.0, "C_poly": 1.0, "p": 1.0},
            "lo": -9.0,
            "hi": 9.0,
        },
    )
    report = validate(spec, samples=512, seed=0)
    failing = {c.name for c in report.failing()}
    assert "f_linear_growth" in failing


def test_validation_fails_a_drift_that_is_nan_under_one_control():
    # a1=0 gives exp(0)-exp(0)=0; a1=1 overflows to inf-inf=nan for x1 > 0.71
    spec = build_builtin(
        "custom",
        {
            "dim": 1,
            "T": 1.0,
            "sigma": ["1"],
            "f": ["exp(1000*x1*a1)-exp(1000*x1*a1)"],
            "gamma": "0",
            "g": "0",
            "h": "-1",
            "controls": [[0.0], [1.0]],
            "growth": {"C_f": 1.0, "C_sigma_inv": 1.0, "C_poly": 1.0, "p": 1.0},
            "lo": -2.0,
            "hi": 2.0,
        },
    )
    with np.errstate(over="ignore", invalid="ignore"):
        report = validate(spec, samples=256, seed=0)
    (check,) = [c for c in report.checks if c.name == "f_linear_growth"]
    assert not check.passed
    assert check.worst_point == ("non-finite f",)


@pytest.mark.parametrize(
    "key, check",
    [
        ("sigma", "sigma_inverse_bound"),
        ("f", "f_linear_growth"),
        ("gamma", "gamma_poly_growth"),
        ("g", "g_poly_growth"),
        ("h", "h_poly_growth"),
    ],
)
def test_validation_fails_a_coefficient_that_is_non_finite_at_some_samples(key, check):
    # exp(1000*x1) overflows to inf for x1 > 0.71, inside the put's box [-3, 5]
    blowup = "exp(1000*x1)"
    spec = build_builtin("custom", {**PUT_LIKE, key: (blowup,) if key in ("sigma", "f") else blowup})
    with np.errstate(over="ignore", invalid="ignore"):
        report = validate(spec, samples=256, seed=0)
    (found,) = [c for c in report.checks if c.name == check]
    assert not found.passed and found.measured == math.inf
    assert found.worst_point == (f"non-finite {key}",)


def test_drift_growth_ties_go_to_the_lowest_control_then_the_first_sample():
    spec = build_builtin(
        "custom",
        {
            "dim": 1,
            "T": 1.0,
            "sigma": ["1"],
            "f": ["0"],
            "gamma": "0",
            "g": "0",
            "h": "-1",
            "controls": [[-1.0], [0.0], [1.0]],
            "growth": {"C_f": 1.0, "C_sigma_inv": 1.0, "C_poly": 1.0, "p": 1.0},
            "lo": -2.0,
            "hi": 2.0,
        },
    )
    ts, xs, ks = _sample_points(spec, 64, 1)
    assert ks[0] != 0  # a plain argmax would name sample 0
    j = int(np.flatnonzero(ks == 0)[0])
    (check,) = [c for c in validate(spec, samples=64, seed=1).checks if c.name == "f_linear_growth"]
    assert check.measured == 0.0
    assert check.worst_point == (float(ts[j]), *xs[j], 0)


def test_validation_report_is_deterministic():
    spec = build_builtin("decaying_obstacle")
    a = validate(spec, samples=256, seed=3)
    b = validate(spec, samples=256, seed=3)
    assert [(c.name, c.measured) for c in a.checks] == [
        (c.name, c.measured) for c in b.checks
    ]
    assert "validation over 256 samples" in a.render()


def _row_spec(d, ka, k, f_reads, gamma_reads, rng):
    """Custom spec whose f and gamma read the controls and, as asked, x and t."""

    def c():
        return repr(float(rng.uniform(-2.0, 2.0)))

    def extra(reads, j):
        out = f"+{c()}*x{j % d + 1}*a{j % ka + 1}" if "x" in reads else ""
        return out + (f"+{c()}*tanh(t-{c()})" if "t" in reads else "")

    f = [f"{c()}*a{j % ka + 1}" + extra(f_reads, j) for j in range(d)]
    gamma = f"{c()}*a1*a{ka}" + extra(gamma_reads, 1)
    return build_builtin(
        "custom",
        {
            "dim": d,
            "T": 1.0,
            "sigma": ["1" if i == j else "0" for i in range(d) for j in range(d)],
            "f": f,
            "gamma": gamma,
            "g": "0",
            "h": "0",
            "controls": rng.uniform(-1.0, 1.0, size=(k, ka)),
            "growth": {"C_f": 10.0, "C_sigma_inv": 1.0, "C_poly": 10.0, "p": 1.0},
            "lo": -2.0,
            "hi": 2.0,
        },
    )


READS = st.sampled_from(["", "x", "t", "xt"])


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3),
    ka=st.integers(1, 3),
    k=st.integers(1, 6),
    n_equals_k=st.booleans(),
    n=st.integers(1, 9),
    f_reads=READS,
    gamma_reads=READS,
    per_row_t=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_control_rows_match_per_control_coefficients(
    d, ka, k, n_equals_k, n, f_reads, gamma_reads, per_row_t, seed
):
    rng = np.random.default_rng(seed)
    spec = _row_spec(d, ka, k, f_reads, gamma_reads, rng)
    n = k if n_equals_k else n
    X = rng.uniform(-2.0, 2.0, size=(n, d))
    idx = rng.integers(0, k, size=n)
    ts = rng.uniform(0.0, 1.0, size=n) if per_row_t else np.full(n, rng.uniform(0.0, 1.0))
    F, G = spec.control_rows(ts if per_row_t else float(ts[0]), X, idx)
    assert F.shape == (n, d) and G.shape == (n,)
    for i in range(n):
        a = spec.controls.points[idx[i]]
        f_ref, g_ref = per_control(spec, ts[i], X[i : i + 1], a)
        assert F[i].tobytes() == f_ref[0].tobytes() and G[i].tobytes() == g_ref[0].tobytes()


def test_control_rows_gather_a_reward_that_reads_only_the_state():
    """gamma reads x but no control, so its [k, n] table repeats one row k times with stride 0."""
    spec = build_builtin(
        "custom",
        {
            "dim": 2,
            "T": 1.0,
            "sigma": ["1", "0", "0", "1"],
            "f": ["a1-0.5*x1", "x1*x2*a1"],
            "gamma": "0.3*x1*x2-x2",
            "g": "0",
            "h": "0",
            "controls": [[-1.0], [0.25], [0.5], [1.0]],
            "growth": {"C_f": 10.0, "C_sigma_inv": 1.0, "C_poly": 10.0, "p": 2.0},
            "lo": -2.0,
            "hi": 2.0,
        },
    )
    rng = np.random.default_rng(5)
    X = rng.uniform(-2.0, 2.0, size=(9, 2))
    idx = rng.integers(0, 4, size=9)
    assert spec.control_table(0.4, X)[1].strides[0] == 0
    F, G = spec.control_rows(0.4, X, idx)
    for i in range(9):
        f_ref, g_ref = per_control(spec, 0.4, X[i : i + 1], spec.controls.points[idx[i]])
        assert F[i].tobytes() == f_ref[0].tobytes() and G[i].tobytes() == g_ref[0].tobytes()


def test_control_rows_reject_indices_outside_the_control_set():
    spec = build_builtin("controlled_drift_abs")
    X = np.zeros((2, 1))
    for idx in ([0, -1], [3, 0]):
        with pytest.raises(ValueError, match=r"control indices must lie in \[0, 3\)"):
            spec.control_rows(0.0, X, idx)
    # an empty batch has no index to check
    F, G = spec.control_rows(0.0, np.zeros((0, 1)), np.zeros(0, dtype=np.int64))
    assert F.shape == (0, 1) and G.shape == (0,)


# -- coefficient assembly ----------------------------------------------------------


def _stacked_columns(trees, env, n):
    """The former assembly: each value made a full column with np.full, then np.stack."""
    cols = []
    for tr in trees:
        val = np.asarray(tr(env), dtype=float)
        cols.append(np.full(n, float(val)) if val.ndim == 0 else val)
    return np.stack(cols, axis=1)


def _expressions(d, ka):
    """Small random expressions over x, t, a parameter and, with ka > 0, the controls."""
    names = ["x" + str(j + 1) for j in range(d)] + ["t", "rho"] + ["a" + str(j + 1) for j in range(ka)]
    atoms = st.sampled_from(["0", "(-0)", "0.5", "(-1.25)", *names])
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, inner, st.sampled_from("+-*")).map(lambda p: f"({p[0]}{p[2]}{p[1]})"),
            inner.map(lambda e: f"tanh({e})"),
            inner.map(lambda e: f"(-{e})"),
            inner.map(lambda e: f"abs({e})"),
        ),
        max_leaves=4,
    )


@st.composite
def assembled_specs(draw):
    d = draw(st.integers(1, 3))
    ka = draw(st.integers(1, 2))
    sigma = [draw(_expressions(d, 0)) for _ in range(d * d)]
    sigma[0] = f"0.8+0.2*tanh(x1)+({sigma[0]})"  # reads the state: the assembled branch
    if d > 1:
        sigma[1] = "-0"
    f = [draw(_expressions(d, ka)) for _ in range(d)]
    f[-1] = draw(st.sampled_from(["-0", f[-1]]))
    return d, ka, tuple(sigma), tuple(f)


@settings(max_examples=60, deadline=None)
@given(case=assembled_specs(), n=st.integers(1, 40), per_row_t=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_coefficient_columns_equal_the_stacked_assembly_bitwise(case, n, per_row_t, seed):
    d, ka, sigma, f = case
    params = {"rho": -0.75}
    coeffs = compile_coefficients(d, sigma, f, "0", "0", "0", params, ka)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n, d))
    A = rng.uniform(-1.0, 1.0, size=(n, ka))
    t = rng.uniform(0.0, 1.0, size=n) if per_row_t else float(rng.uniform(0.0, 1.0))
    env = {**params, "t": t, **{f"x{j + 1}": X[:, j] for j in range(d)}}
    sig_trees = [parse_expression(s, {"rho", "t", *(f"x{j + 1}" for j in range(d))}) for s in sigma]
    ref = _stacked_columns(sig_trees, env, n).reshape(n, d, d)
    got = coeffs.sigma(t, X)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    if d > 1:
        assert np.all(np.signbit(got[:, 0, 1]))  # "-0" stays -0.0

    env.update({f"a{j + 1}": A[:, j] for j in range(ka)})
    f_names = {"rho", "t", *(f"x{j + 1}" for j in range(d)), *(f"a{j + 1}" for j in range(ka))}
    ref = _stacked_columns([parse_expression(s, f_names) for s in f], env, n)
    table = coeffs.f(t, X, A)  # the rows of A as a control table; row i of entry i is the reference row
    got = table[np.arange(n), np.arange(n) if table.shape[1] > 1 else 0]
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


_FREED_BLOCK = """
import numpy as np
import ctrlstop

def anon():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("RssAnon:"))

for _ in range(3):
    np.ones(1 << 20)
before = anon()
block = np.ones(1 << 20)
held = anon()
del block
print(held - before, anon() - before)
"""


@pytest.mark.skipif(
    "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}) or not os.path.exists("/proc/self/status"),
    reason="glibc allocator thresholds, read through /proc",
)
def test_a_freed_large_array_leaves_the_resident_set():
    # with glibc's dynamic threshold the first free moves later 8 MiB blocks into the heap, which
    # keeps them resident; importing the package fixes the threshold, so each gets its own mapping.
    # A fresh interpreter, so that no earlier test's heap can hold the block.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(model.__file__))}
    out = subprocess.run([sys.executable, "-c", _FREED_BLOCK], env=env, capture_output=True, text=True, check=True)
    held, kept = map(int, out.stdout.split())
    assert held > 7 * 1024 and kept < 1024
