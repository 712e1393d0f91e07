"""Hamiltonian maximisation and truncation."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctrlstop.hamilton import (
    TIE_TOL,
    TruncationIndex,
    _control_values,
    _ladder_runs,
    cutoff_batch,
    first_maximiser,
    ladder_pairs,
    sup_hamiltonian_batch,
    truncate_values,
)
from ctrlstop.model import Box, build_builtin, validate

from oracles import benchmark_spec, per_control


def _first_maximisers(spec, t, X, Z):
    """The tie rule the finite-difference step applies, on the kernel's control table."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    return first_maximiser(_control_values(spec, t, X, Z))[1]


def _one_row(spec, t, x, z):
    """H* at a single point, as a one-row batch, and the first maximiser there."""
    vals = sup_hamiltonian_batch(spec, t, np.atleast_2d(x), np.atleast_2d(z))
    return float(vals[0]), int(_first_maximisers(spec, t, x, z)[0])


def _cutoff_oracle(m, x):
    """rho_m(x) = clip(m + 1 - |x|, 0, 1) at one point, in plain Python floats."""
    return float(np.clip(m + 1.0 - np.linalg.norm(np.atleast_1d(x)), 0.0, 1.0))


@pytest.fixture(scope="module")
def controlled():
    return build_builtin("controlled_drift_abs")


@pytest.fixture(scope="module")
def bachelier():
    return build_builtin("bachelier_put")


def test_uncontrolled_hamiltonian_is_zero(bachelier):
    assert bachelier.controls.k == 1
    assert _one_row(bachelier, 0.3, [1.2], [5.0]) == (0.0, 0)


def test_controlled_sup_is_absolute_value(controlled):
    # sigma = 1, f = a in {-1, 0, 1}, gamma = 0 => H*(z) = |z|
    for z in (-2.5, -0.3, 0.4, 7.0):
        value, arg = _one_row(controlled, 0.0, [0.5], [z])
        assert value == abs(z)
        assert controlled.controls.points[arg, 0] == np.sign(z)


def test_tie_resolution_takes_first_control(controlled):
    # at z = 0 all three controls tie; the first in control-set order wins
    assert _one_row(controlled, 0.0, [0.5], [0.0]) == (0.0, 0)
    assert np.array_equal(controlled.controls.points[0], [-1.0])
    # values within TIE_TOL of the max count as maximisers, beyond it they do not
    assert _one_row(controlled, 0.0, [0.0], [TIE_TOL / 4.0])[1] == 0
    assert _one_row(controlled, 0.0, [0.0], [4.0 * TIE_TOL])[1] == 2


def test_sup_matches_bruteforce_max(controlled):
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.normal(size=1)
        z = rng.normal(size=1) * 10.0
        X = x[None, :]
        sig = controlled.sigma(0.1, X)[0]
        brute = max(
            float(z @ np.linalg.solve(sig, F[0]) + G[0])
            for F, G in (per_control(controlled, 0.1, X, a) for a in controlled.controls.points)
        )
        assert _one_row(controlled, 0.1, x, z)[0] == brute


def test_batch_agrees_with_pointwise(controlled):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(64, 1))
    Z = rng.normal(size=(64, 1)) * 3.0
    vals = sup_hamiltonian_batch(controlled, 0.2, X, Z)
    args = _first_maximisers(controlled, 0.2, X, Z)
    for i in range(64):
        assert (vals[i], args[i]) == _one_row(controlled, 0.2, X[i], Z[i])


def test_kernel_rejects_rows_that_do_not_match():
    spec = build_builtin("controlled_drift_abs", {"d": 2})
    with pytest.raises(ValueError, match=r"must both be \[n, 2\]"):
        sup_hamiltonian_batch(spec, 0.0, np.zeros((3, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError, match=r"must both be \[n, 2\]"):
        sup_hamiltonian_batch(spec, 0.0, np.zeros((3, 1)), np.ones((3, 1)))
    with pytest.raises(ValueError, match=r"must both be \[n, 2\]"):
        sup_hamiltonian_batch(spec, 0.0, np.zeros((3, 1)), np.ones((3, 2)))
    assert sup_hamiltonian_batch(spec, 0.0, np.zeros(2), np.ones(2)).shape == (1,)


def _table_spec(f, gamma, controls, dim=1):
    """Custom spec with sigma = I whose drift and reward are the given expressions."""
    return build_builtin(
        "custom",
        {
            "dim": dim,
            "T": 1.0,
            "sigma": ["1" if i == j else "0" for i in range(dim) for j in range(dim)],
            "f": f,
            "gamma": gamma,
            "g": "0",
            "h": "0",
            "controls": controls,
            "growth": {"C_f": 1e9, "C_sigma_inv": 1.0, "C_poly": 1e9, "p": 1.0},
            "lo": -2.0,
            "hi": 2.0,
        },
    )


_THREE = [[-1.0], [0.0], [1.0]]

# the three builtins, the d=5 problem of the MC benchmark (243 controls, H* evaluates
# its 32 corners) and a linear reward, under which H* skips the middle control
_VALUE_SPECS = {
    **{name: build_builtin(name) for name in ("bachelier_put", "controlled_drift_abs", "decaying_obstacle")},
    "controlled_drift_abs-d5": build_builtin("controlled_drift_abs", {"d": 5}),
    "linear-reward": _table_spec(["a1"], "0.1*a1", _THREE),
}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_VALUE_SPECS)),
    n=st.integers(0, 30),
    per_row_t=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(name="controlled_drift_abs-d5", n=0, per_row_t=False, seed=0)
@example(name="controlled_drift_abs-d5", n=1, per_row_t=True, seed=1)
@example(name="bachelier_put", n=0, per_row_t=True, seed=2)
@example(name="controlled_drift_abs", n=1, per_row_t=False, seed=3)
def test_values_are_the_first_maximisers_maxima_bit_for_bit(name, n, per_row_t, seed):
    spec = _VALUE_SPECS[name]
    rng = np.random.default_rng(seed)
    X = rng.uniform(spec.domain.lo, spec.domain.hi, size=(n, spec.dim))
    Z = rng.standard_normal((n, spec.dim)) * np.exp(rng.uniform(-3.0, 3.0, size=(n, 1)))
    t = rng.uniform(0.0, spec.horizon_T, size=n) if per_row_t else 0.5 * spec.horizon_T
    vals = sup_hamiltonian_batch(spec, t, X, Z)
    assert vals.shape == (n,)
    assert vals.tobytes() == first_maximiser(_control_values(spec, t, X, Z))[0].tobytes()


def test_hstar_rows_keep_the_controls_that_can_attain_the_maximum():
    d5 = build_builtin("controlled_drift_abs", {"d": 5})
    corners = np.flatnonzero(np.all(np.abs(d5.controls.points) == 1.0, axis=1))
    assert corners.size == 32 and np.array_equal(d5._hstar_rows, corners)
    assert d5._hstar_rows is d5._hstar_rows and not d5._hstar_rows.flags.writeable
    assert build_builtin("controlled_drift_abs")._hstar_rows.tolist() == [0, 2]
    # the reward -0.2 |a|^2 lifts the interior of the 3 x 3 grid onto a concave surface
    assert benchmark_spec("policy-2d-localvol")._hstar_rows.tolist() == list(range(9))
    assert _table_spec(["a1"], "0.1*a1", _THREE)._hstar_rows.tolist() == [0, 2]
    assert _table_spec(["a1"], "-0.1*a1*a1", _THREE)._hstar_rows.tolist() == [0, 1, 2]
    # a drift that reads x, or a reward that reads t, keeps every control
    assert _table_spec(["a1*(1+0.1*x1)"], "0", _THREE)._hstar_rows.tolist() == [0, 1, 2]
    assert _table_spec(["a1"], "0.1*t*a1", _THREE)._hstar_rows.tolist() == [0, 1, 2]
    # one drift for all: the first control with the largest reward stays
    assert _table_spec(["0.5"], "0", _THREE)._hstar_rows.tolist() == [0]
    assert _table_spec(["0.5"], "-a1*a1", _THREE)._hstar_rows.tolist() == [1]
    assert _table_spec(["0.5"], "a1*a1", _THREE)._hstar_rows.tolist() == [0]
    # a drift that is a midpoint only up to rounding keeps its control; in the plane the
    # rounded midpoint of (0.1, 0.1) and (0.2, 0.3) lies off their segment, a vertex
    assert _table_spec(["a1"], "0", [[0.1], [0.2], [0.3]])._hstar_rows.tolist() == [0, 1, 2]
    plane = _table_spec(["a1", "a2"], "0", [[0.1, 0.1], [0.2, 0.3], [0.15000000000000002, 0.2]], dim=2)
    assert plane._hstar_rows.tolist() == [0, 1, 2]


def _upper_hull(points):
    """The vertices of the upper hull of 2-d points (x, y) in exact arithmetic: the
    points that some direction (w, 1) makes the only maximiser of w x + y."""
    hull = []
    for p in sorted(set(points), key=lambda q: (q[0], -q[1])):
        if hull and hull[-1][0] == p[0]:
            continue  # the same drift with a smaller reward
        while len(hull) >= 2 and (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1]) >= (
            p[0] - hull[-2][0]
        ) * (hull[-1][1] - hull[-2][1]):
            hull.pop()
        hull.append(p)
    return set(hull)


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([1, 1, 2, 3]),
    k=st.integers(1, 14),
    off=st.integers(0, 2),
    scale=st.integers(-4, 4),
    reward=st.sampled_from(["zero", "linear", "concave", "convex", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_hstar_rows_give_the_exact_maximum_on_random_tables(d, k, off, scale, reward, seed):
    """Drifts on a small integer lattice scaled by 2^scale, so midpoints are exact, plus a few
    off-lattice drifts and the rounded midpoint of two of them; the controls are the rows
    (F, G), read back by f = a1..ad and gamma = a(d+1)."""
    rng = np.random.default_rng(seed)
    F = np.concatenate([rng.integers(-2, 3, size=(k, d)) * 2.0**scale, rng.uniform(-3.0, 3.0, size=(off, d))])
    F = np.concatenate([F, (F[k:][:1] + F[k:][1:2]) / 2.0])
    G = {
        "zero": np.zeros(len(F)),
        "linear": F @ (rng.integers(-3, 4, size=d) * 0.25),
        "concave": -0.5 * np.sum(F * F, axis=1),
        "convex": 0.5 * np.sum(F * F, axis=1),
        "random": rng.uniform(-1.0, 1.0, size=len(F)),
    }[reward]
    pts = np.unique(np.column_stack([F, G]), axis=0)
    spec = _table_spec([f"a{j + 1}" for j in range(d)], f"a{d + 1}", pts, dim=d)
    kept = spec._hstar_rows
    assert np.all(np.diff(kept) > 0) and 1 <= kept.size <= len(pts)
    rows = [(tuple(map(Fraction, p[:d])), Fraction(p[d])) for p in pts]
    for w in rng.standard_normal((50, d)) * np.exp(rng.uniform(-3.0, 3.0, size=(50, 1))):
        wf = [Fraction(x) for x in w]
        vals = [sum(a * b for a, b in zip(wf, f)) + g for f, g in rows]
        assert max(vals[i] for i in kept) == max(vals)
    # the upper extreme points: at d = 1 the vertices of the upper hull, at d = 2
    # under a zero reward the vertices of the drifts' hull, its upper and lower halves
    if d == 1:
        assert _upper_hull([(f[0], g) for f, g in rows]) <= {(rows[i][0][0], rows[i][1]) for i in kept}
    if d == 2 and reward == "zero":
        vertices = _upper_hull([f for f, _ in rows]) | {(x, -y) for x, y in _upper_hull([(x, -y) for (x, y), _ in rows])}
        assert vertices <= {rows[i][0] for i in kept}


def _random_spec(d: int, x_in_f: bool, x_in_gamma: bool, k: int, rng) -> object:
    """Custom spec with a state- and time-dependent, diagonally dominant sigma."""

    def c(lo, hi):
        return repr(float(rng.uniform(lo, hi)))

    sigma = [
        f"{c(0.8, 2.0)}+0.3*tanh(x{i + 1}+{c(-1, 1)}*t)" if i == j else f"{c(-0.2, 0.2)}*tanh(x{j + 1}-t)"
        for i in range(d)
        for j in range(d)
    ]
    f = [
        f"{c(-2, 2)}*a1+{c(-2, 2)}*a2" + (f"+{c(-1, 1)}*x{j + 1}*a1" if x_in_f else "") + f"+{c(-1, 1)}*t"
        for j in range(d)
    ]
    gamma = f"{c(-1, 0)}*(a1*a1+a2*a2)+{c(-1, 1)}*a2*t" + (f"+{c(-1, 1)}*x1*a1" if x_in_gamma else "")
    return build_builtin(
        "custom",
        {
            "dim": d,
            "T": 1.0,
            "sigma": sigma,
            "f": f,
            "gamma": gamma,
            "g": "0",
            "h": "0",
            "controls": rng.uniform(-1.0, 1.0, size=(k, 2)),
            "growth": {"C_f": 10.0, "C_sigma_inv": 10.0, "C_poly": 10.0, "p": 1.0},
            "lo": -2.0,
            "hi": 2.0,
        },
    )


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    x_in_f=st.booleans(),
    x_in_gamma=st.booleans(),
    per_row_t=st.booleans(),
    k=st.integers(1, 6),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_bruteforce_solve_per_control(d, x_in_f, x_in_gamma, per_row_t, k, n, seed):
    rng = np.random.default_rng(seed)
    spec = _random_spec(d, x_in_f, x_in_gamma, k, rng)
    X = rng.uniform(-2.0, 2.0, size=(n, d))
    Z = rng.standard_normal((n, d)) * np.exp(rng.uniform(-3.0, 3.0, size=(n, 1)))
    ts = rng.uniform(0.0, 1.0, size=n)
    t_arg = ts if per_row_t else float(ts[0])
    vals = sup_hamiltonian_batch(spec, t_arg, X, Z)
    args = _first_maximisers(spec, t_arg, X, Z)
    for i in range(n):
        ti = float(ts[i]) if per_row_t else float(ts[0])
        xi = X[i : i + 1]
        sig = spec.sigma(ti, xi)[0]
        terms = np.array([
            (Z[i] @ np.linalg.solve(sig, F[0]), G[0])
            for F, G in (per_control(spec, ti, xi, a) for a in spec.controls.points)
        ])
        brute = terms.sum(axis=1)
        # relative to the size of the terms, which bounds the rounding of either order
        err = 1e-12 * max(1.0, float(np.max(np.abs(terms).sum(axis=1))))
        assert abs(vals[i] - brute.max()) <= err
        top = np.sort(brute)[::-1]
        if k == 1 or top[0] - top[1] > TIE_TOL * max(1.0, abs(top[0])) + 2.0 * err:
            assert args[i] == int(np.argmax(brute))


def _two_dim_spec(sigma):
    return build_builtin(
        "custom",
        {
            "dim": 2,
            "T": 1.0,
            "sigma": sigma,
            "f": ["a1", "a2"],
            "gamma": "0",
            "g": "0",
            "h": "-1",
            "controls": [[0.0, 0.0]],
            "growth": {"C_f": 0.0, "C_sigma_inv": 1e12, "C_poly": 1.0, "p": 1.0},
            "lo": -2.0,
            "hi": 2.0,
        },
    )


def test_hamiltonian_rejects_singular_sigma():
    # cond(sigma) = 4e9 is above the 1e8 cap: validation fails by name
    near = validate(_two_dim_spec(["1", "1", "1", "1.000000001"]), samples=64)
    assert [c.name for c in near.failing()] == ["sigma_condition_cap"]
    with pytest.raises(np.linalg.LinAlgError):
        sup_hamiltonian_batch(_two_dim_spec(["1", "1", "1", "1"]), 0.0, [[0.0, 0.0]], [[1.0, 1.0]])


def test_cutoff_profile():
    for x, rho in (([2.0], 1.0), ([3.0], 1.0), ([3.5], 0.5), ([4.0], 0.0), ([-7.0], 0.0)):
        assert cutoff_batch(3, [x])[0] == rho
    # euclidean radius in higher dimension
    assert cutoff_batch(1, [[1.0, 1.0]])[0] == pytest.approx(2.0 - np.sqrt(2.0))
    with pytest.raises(ValueError, match=">= 1"):
        cutoff_batch(0.5, [[0.0]])
    with pytest.raises(ValueError, match=">= 1"):
        TruncationIndex(0, 1)


def test_cutoff_batch_matches_scalar():
    X = np.linspace(-5.0, 5.0, 41)[:, None]
    batch = cutoff_batch(2, X)
    assert np.array_equal(batch, [_cutoff_oracle(2, row) for row in X])


def test_truncate_values_two_sided():
    vals = np.array([2.0, -3.0, 0.0])
    rho_n = np.array([0.5, 1.0, 0.0])
    rho_m = np.array([1.0, 0.25, 0.0])
    assert np.array_equal(truncate_values(vals, rho_n, rho_m), [1.0, -0.75, 0.0])


def test_truncation_identity_inside_radius(controlled):
    trunc = TruncationIndex(2, 2)

    def truncated(x, z):
        X = np.array([[x]])
        vals = sup_hamiltonian_batch(controlled, 0.1, X, np.array([[z]]))
        return truncate_values(vals, cutoff_batch(trunc.n, X), cutoff_batch(trunc.m, X))[0]

    for x, z in ((0.5, 1.7), (-1.9, -0.3), (2.0, 4.0)):
        assert truncated(x, z) == _one_row(controlled, 0.1, [x], [z])[0]
    # fully damped beyond n+1
    assert truncated(3.5, 1.0) == 0.0
    # half damped at radius n + 1/2
    assert truncated(2.5, 1.0) == 0.5


def test_ladder_pairs_and_the_exhaustion_cover():
    # rising in n for each m, then falling in m for each n: ``below`` is dominated by ``above``
    assert list(ladder_pairs((1, 2, 4), (1, 3))) == [
        ("n", 1, 1, 2, (1, 1), (2, 1)),
        ("n", 1, 2, 4, (2, 1), (4, 1)),
        ("n", 3, 1, 2, (1, 3), (2, 3)),
        ("n", 3, 2, 4, (2, 3), (4, 3)),
        ("m", 1, 1, 3, (1, 3), (1, 1)),
        ("m", 2, 1, 3, (2, 3), (2, 1)),
        ("m", 4, 1, 3, (4, 3), (4, 1)),
    ]
    assert TruncationIndex.covering(4.0) == TruncationIndex.covering(3.2) == TruncationIndex(5, 5)


_BOUND = st.floats(-20.0, 20.0, allow_nan=False)
# one (a, b) pair of distinct bounds per axis, d = 1 to 3
_BOX_BOUNDS = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.tuples(_BOUND, _BOUND).filter(lambda p: p[0] != p[1]), min_size=d, max_size=d)
)


@settings(max_examples=200, deadline=None)
@given(_BOX_BOUNDS)
def test_the_pair_covering_a_box_radius_cuts_no_corner(bounds):
    lo, hi = (np.array(side) for side in zip(*(sorted(p) for p in bounds)))
    box = Box(lo, hi)
    cover = TruncationIndex.covering(box.radius)
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    for level in (cover.n, cover.m):
        assert np.all(cutoff_batch(level, corners) == 1.0)


@pytest.mark.parametrize(
    "n_list, m_list, extra",
    [((4, 1, 2), (2, 1), True), ((5, 1), (1, 5), False), ((1, 5), (2,), True), ((2,), (5, 1), True)],
)
def test_ladder_runs_solve_each_pair_once_and_the_covering_pair_only_if_missing(n_list, m_list, extra):
    calls = []

    def solve(trunc):
        calls.append(None if trunc is None else (trunc.n, trunc.m))
        return len(calls)

    got_n, got_m, runs, base, cover = _ladder_runs(solve, n_list, m_list, 3.2)
    assert got_n == tuple(sorted(n_list)) and got_m == tuple(sorted(m_list))
    pairs = list(itertools.product(got_n, got_m))
    assert list(runs) == pairs and calls.count(None) == 1 and calls[base - 1] is None
    assert sorted(c for c in calls if c is not None) == sorted(pairs + [(5, 5)] * extra)
    # reach 3.2 is covered by (5, 5): its listed run, or the one extra solve
    assert calls[cover - 1] == (5, 5) and (cover == len(calls)) == extra
