"""Hamiltonian maximisation, truncation, and the unit direction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlstop.hamilton import (
    TIE_TOL,
    TruncationIndex,
    cutoff,
    cutoff_batch,
    hamiltonian,
    sup_hamiltonian,
    sup_hamiltonian_batch,
    tail_norms,
    truncate_values,
    truncated_sup_hamiltonian,
    unit_direction,
    unit_direction_batch,
)
from ctrlstop.model import build_builtin


@pytest.fixture(scope="module")
def controlled():
    return build_builtin("controlled_drift_abs")


@pytest.fixture(scope="module")
def bachelier():
    return build_builtin("bachelier_put")


def test_uncontrolled_hamiltonian_is_zero(bachelier):
    hv = sup_hamiltonian(bachelier, 0.3, [1.2], [5.0])
    assert hv.value == 0.0
    assert hv.argmax_index == 0
    assert hv.ties == 1


def test_controlled_sup_is_absolute_value(controlled):
    # sigma = 1, f = a in {-1, 0, 1}, gamma = 0 => H*(z) = |z|
    for z in (-2.5, -0.3, 0.4, 7.0):
        hv = sup_hamiltonian(controlled, 0.0, [0.5], [z])
        assert hv.value == abs(z)
        assert hv.argmax[0] == np.sign(z)
        assert hv.ties == 1


def test_tie_resolution_takes_first_control(controlled):
    hv = sup_hamiltonian(controlled, 0.0, [0.5], [0.0])
    assert hv.value == 0.0
    assert hv.ties == 3
    assert hv.argmax_index == 0
    assert np.array_equal(hv.argmax, [-1.0])


def test_sup_matches_bruteforce_max(controlled):
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.normal(size=1)
        z = rng.normal(size=1) * 10.0
        brute = max(
            hamiltonian(controlled, 0.1, x, z, a) for a in controlled.controls.points
        )
        assert sup_hamiltonian(controlled, 0.1, x, z).value == brute


def test_batch_agrees_with_pointwise(controlled):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(64, 1))
    Z = rng.normal(size=(64, 1)) * 3.0
    vals, args = sup_hamiltonian_batch(controlled, 0.2, X, Z)
    for i in range(64):
        hv = sup_hamiltonian(controlled, 0.2, X[i], Z[i])
        assert vals[i] == hv.value
        assert args[i] == hv.argmax_index


def test_batch_tie_tolerance_matches_scalar(controlled):
    # values within TIE_TOL of the max count as maximisers
    z = np.array([[TIE_TOL / 4.0]])
    _, args = sup_hamiltonian_batch(controlled, 0.0, np.zeros((1, 1)), z)
    hv = sup_hamiltonian(controlled, 0.0, [0.0], z[0])
    assert args[0] == hv.argmax_index == 0


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
    vals, args = sup_hamiltonian_batch(spec, t_arg, X, Z)
    for i in range(n):
        ti = float(ts[i]) if per_row_t else float(ts[0])
        xi = X[i : i + 1]
        sig = spec.sigma(ti, xi)[0]
        terms = np.array([
            (Z[i] @ np.linalg.solve(sig, spec.f(ti, xi, a)[0]), spec.gamma(ti, xi, a)[0])
            for a in spec.controls.points
        ])
        brute = terms.sum(axis=1)
        # relative to the size of the terms, which bounds the rounding of either order
        err = 1e-12 * max(1.0, float(np.max(np.abs(terms).sum(axis=1))))
        assert abs(vals[i] - brute.max()) <= err
        top = np.sort(brute)[::-1]
        if k == 1 or top[0] - top[1] > TIE_TOL * max(1.0, abs(top[0])) + 2.0 * err:
            assert args[i] == int(np.argmax(brute))


def test_hamiltonian_rejects_foreign_control(controlled):
    with pytest.raises(ValueError, match="not in the control set"):
        hamiltonian(controlled, 0.0, [0.0], [1.0], [0.5])


def test_hamiltonian_rejects_singular_sigma():
    spec = build_builtin(
        "custom",
        {
            "dim": 2,
            "T": 1.0,
            "sigma": ["1", "1", "1", "1"],
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
    with pytest.raises(ValueError, match="singular"):
        hamiltonian(spec, 0.0, [0.0, 0.0], [1.0, 1.0], [0.0, 0.0])


def test_cutoff_profile():
    assert cutoff(3, [2.0]) == 1.0
    assert cutoff(3, [3.0]) == 1.0
    assert cutoff(3, [3.5]) == 0.5
    assert cutoff(3, [4.0]) == 0.0
    assert cutoff(3, [-7.0]) == 0.0
    # euclidean radius in higher dimension
    assert cutoff(1, [1.0, 1.0]) == pytest.approx(2.0 - np.sqrt(2.0))
    with pytest.raises(ValueError, match=">= 1"):
        cutoff(0.5, [0.0])
    with pytest.raises(ValueError, match=">= 1"):
        TruncationIndex(0, 1)


def test_cutoff_batch_matches_scalar():
    X = np.linspace(-5.0, 5.0, 41)[:, None]
    batch = cutoff_batch(2, X)
    assert np.array_equal(batch, [cutoff(2, row) for row in X])


def test_truncate_values_two_sided():
    vals = np.array([2.0, -3.0, 0.0])
    rho_n = np.array([0.5, 1.0, 0.0])
    rho_m = np.array([1.0, 0.25, 0.0])
    assert np.array_equal(truncate_values(vals, rho_n, rho_m), [1.0, -0.75, 0.0])


def test_truncation_identity_inside_radius(controlled):
    trunc = TruncationIndex(2, 2)
    for x, z in ((0.5, 1.7), (-1.9, -0.3), (2.0, 4.0)):
        full = sup_hamiltonian(controlled, 0.1, [x], [z]).value
        assert truncated_sup_hamiltonian(controlled, trunc, 0.1, [x], [z]) == full
    # fully damped beyond n+1
    assert truncated_sup_hamiltonian(controlled, trunc, 0.1, [3.5], [1.0]) == 0.0
    # half damped at radius n + 1/2
    assert truncated_sup_hamiltonian(controlled, trunc, 0.1, [2.5], [1.0]) == 0.5


def test_unit_direction_small_cases():
    assert np.array_equal(unit_direction([3.0, 4.0]), [1.0 / 3.0, 1.0])
    assert np.array_equal(unit_direction([0.0, -2.0]), [0.0, -1.0])
    assert np.array_equal(unit_direction([-5.0]), [-1.0])
    assert np.array_equal(unit_direction([0.0, 0.0, 0.0]), np.zeros(3))


def test_unit_direction_batch_matches_single():
    rng = np.random.default_rng(7)
    Z = rng.normal(size=(200, 3)) * 10.0
    Z[::7, 1] = 0.0
    Z[0] = 0.0
    batch = unit_direction_batch(Z)
    for i in range(0, 200, 13):
        assert np.array_equal(batch[i], unit_direction(Z[i]))


@pytest.mark.parametrize("d", [1, 2, 5])
def test_unit_direction_identity_and_bound(d):
    rng = np.random.default_rng(40 + d)
    Z = rng.normal(size=(5000, d)) * np.exp(rng.uniform(-8, 8, size=(5000, 1)))
    Z[::11] = 0.0
    ell = unit_direction_batch(Z)
    norms = tail_norms(Z)[:, 0]
    dots = np.einsum("nd,nd->n", ell, Z)
    assert np.all(np.abs(dots - norms) <= 8.0 * np.spacing(np.maximum(norms, 1e-300)))
    assert np.max(np.abs(ell)) <= 1.0
