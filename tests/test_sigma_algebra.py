"""Per-row sigma algebra: the derived ``sigma_diagonal``, ``sigma_solve`` and ``sigma_apply``.

A diagonal sigma is divided through instead of factorised, and every product
with sigma is one zero-started, j-ascending sum.  The tests pin both to the
LAPACK solves and einsum contractions they replace, bit for bit where the
two agree by construction, and check that a zero on the diagonal still
raises as LAPACK's gesv does.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlstop.hamilton import _control_values, sup_hamiltonian_batch
from ctrlstop.model import build_builtin, sigma_apply
from ctrlstop.paths import PathBatch, TimeGrid, _diffusion
from ctrlstop.pde import _covariance

from oracles import girsanov_log_terms

EPS = np.finfo(float).eps


def _custom(sigma, params=None, dim=2, f=("a1", "a2")):
    return build_builtin(
        "custom",
        {
            "dim": dim,
            "T": 1.0,
            "sigma": sigma,
            "f": f,
            "gamma": "-0.2*(a1*a1+a2*a2)",
            "g": "0",
            "h": "0",
            "controls": [[a1, a2] for a1 in (-1.0, 0.5, 1.0) for a2 in (-1.0, 0.25, 1.0)],
            "params": params or {},
            "growth": {"C_f": 10.0, "C_sigma_inv": 10.0, "C_poly": 10.0, "p": 1.0},
            "lo": -2.0,
            "hi": 2.0,
        },
    )


def _lapack_twin(spec):
    """``spec`` with ``sigma_diagonal`` cleared, so every sigma solve takes LAPACK's gesv.

    A 1 x 1 sigma has no off-diagonal expression that could clear it, so the
    derived field is overwritten on a copy.
    """
    coeffs = dataclasses.replace(spec.coefficients)
    object.__setattr__(coeffs, "sigma_diagonal", False)
    return dataclasses.replace(spec, coefficients=coeffs)


# -- the derived sigma_diagonal ------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 5])
def test_controlled_drift_abs_is_diagonal(d):
    assert build_builtin("controlled_drift_abs", {"d": d}).coefficients.sigma_diagonal


def test_flag_is_set_on_diagonal_inputs():
    assert build_builtin("bachelier_put").coefficients.sigma_diagonal
    assert build_builtin("decaying_obstacle").coefficients.sigma_diagonal
    # state- and time-dependent diagonal, as in the localvol benchmark problem
    assert _custom(("0.8+0.2*tanh(x1)", "0", "0", "0.8+0.2*tanh(x2+t)")).coefficients.sigma_diagonal
    # an off-diagonal parameter bound to zero
    assert _custom(("1", "rho", "rho", "1"), params={"rho": 0.0}).coefficients.sigma_diagonal


def test_flag_is_clear_on_other_inputs():
    assert not _custom(("1", "0.05", "0", "1")).coefficients.sigma_diagonal
    assert not _custom(("1", "rho", "0", "1"), params={"rho": 0.3}).coefficients.sigma_diagonal
    # zero at every state, but it reads the state: not derived from the input alone
    assert not _custom(("1", "0*x1", "0", "1")).coefficients.sigma_diagonal
    # the full-sigma problem of tests/test_batched_equivalence.py
    full = _custom(("0.8+0.2*tanh(x1)", "0.1*tanh(x2-t)", "0.05", "0.8+0.2*tanh(x2+t)"))
    assert not full.coefficients.sigma_diagonal


def test_full_sigma_goes_through_lapack(monkeypatch):
    """The gesv oracle tests only mean something if a full sigma still reaches LAPACK."""
    spec = _custom(("0.8+0.2*tanh(x1)", "0.1*tanh(x2-t)", "0.05", "0.8+0.2*tanh(x2+t)"))
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a.shape) or solve(a, b))
    X = np.array([[0.1, 0.2], [0.3, -0.4], [1.0, 0.5]])
    spec.sigma_solve(spec.sigma(0.3, X), X)
    spec.sigma_solve(spec.sigma(0.3, X), X, transpose=True)
    assert calls == [(3, 2, 2), (3, 2, 2)]
    diag = _custom(("0.8+0.2*tanh(x1)", "0", "0", "0.8+0.2*tanh(x2+t)"))
    diag.sigma_solve(diag.sigma(0.3, X), X)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "sigma",
    [
        ("0.8+0.2*tanh(x1)", "0", "0", "0.8+0.2*tanh(x2+t)"),  # diagonal, as in the localvol benchmark problem
        ("0.8+0.2*tanh(x1)", "0.1*tanh(x2-t)", "0.05", "0.8+0.2*tanh(x2+t)"),  # correlated
    ],
)
def test_a_sigma_that_reads_x_gives_the_bits_of_its_contiguous_copy(sigma):
    """A compiled sigma that reads the state is the transposed view of contiguous [d*d, n] rows;
    every reader gives the bits of the same entries in C order."""
    spec = _custom(sigma)
    assert spec.coefficients.sigma_diagonal == (sigma[1] == "0")
    rng = np.random.default_rng(17)
    X = rng.uniform(-2.0, 2.0, size=(257, 2))
    V = rng.standard_normal((257, 2)) * np.exp(rng.uniform(-3.0, 3.0, size=(257, 1)))
    sig = spec.sigma(0.3, X)
    dense = np.ascontiguousarray(sig)
    assert not sig.flags.c_contiguous and sig.strides[0] == sig.itemsize
    assert sigma_apply(sig, V).tobytes() == sigma_apply(dense, V).tobytes()
    for transpose in (False, True):
        got = spec.sigma_solve(sig, V, transpose=transpose)
        assert got.tobytes() == spec.sigma_solve(dense, V, transpose=transpose).tobytes()
    (diag, cross), (diag_ref, cross_ref) = _covariance(sig), _covariance(dense)
    assert [a.tobytes() for a in (*diag, cross)] == [a.tobytes() for a in (*diag_ref, cross_ref)]
    assert _diffusion(spec, sig, V).tobytes() == _diffusion(spec, dense, V).tobytes()


# -- sigma_solve ---------------------------------------------------------------


def _signed_magnitudes(draw, shape):
    """Entries of both signs with magnitudes spread over 1e-3 .. 1e3."""
    mags = draw(st.lists(st.floats(-3.0, 3.0), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(mags), max_size=len(mags)))
    return (np.array(signs) * 10.0 ** np.array(mags)).reshape(shape)


@st.composite
def diagonal_stacks(draw):
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    sig = np.zeros((n, d, d))
    sig[:, np.arange(d), np.arange(d)] = _signed_magnitudes(draw, (n, d))
    return sig, _signed_magnitudes(draw, (n, d))


@settings(max_examples=60, deadline=None)
@given(stack=diagonal_stacks(), transpose=st.booleans())
def test_diagonal_solve_equals_gesv_bitwise(stack, transpose):
    sig, V = stack
    spec = build_builtin("controlled_drift_abs", {"d": V.shape[1]})
    got = spec.sigma_solve(sig, V, transpose=transpose)
    ref = np.linalg.solve(np.swapaxes(sig, 1, 2) if transpose else sig, V[..., None])[..., 0]
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_zero_entries_are_equal_and_signed_as_division():
    """On zero entries gesv's sign of zero depends on its substitution order;
    division gives V/diag's IEEE sign, and the two still compare equal."""
    spec = build_builtin("controlled_drift_abs", {"d": 3})
    sig = np.zeros((4, 3, 3))
    sig[:, np.arange(3), np.arange(3)] = [[2.0, -3.0, 0.5], [-1.0, 4.0, -2.0], [1.5, 1.5, -1.5], [-0.1, 7.0, 3.0]]
    V = np.array([[0.0, -0.0, 1.0], [-2.0, 0.0, -0.0], [0.0, 0.0, 0.0], [-0.0, 5.0, 0.0]])
    got = spec.sigma_solve(sig, V)
    assert np.array_equal(got, np.linalg.solve(sig, V[..., None])[..., 0])
    diag = np.diagonal(sig, axis1=1, axis2=2)
    assert got.tobytes() == (V / diag).tobytes()


def _singular_spec():
    return _custom(("x1", "0", "0", "1"))


def test_zero_on_the_diagonal_raises_like_gesv():
    spec = _singular_spec()
    assert spec.coefficients.sigma_diagonal
    X = np.array([[0.5, 0.2], [0.0, 0.3]])
    Z = np.array([[1.0, -1.0], [0.5, 2.0]])
    with pytest.raises(np.linalg.LinAlgError):
        sup_hamiltonian_batch(spec, 0.2, X, Z)
    grid = TimeGrid(0.0, 1.0, 2)
    states = np.array([[[0.5, 0.2], [0.0, 0.3], [0.1, 0.1]]])
    batch = PathBatch(
        grid=grid,
        states=states,
        increments=np.full((1, 2, 2), 0.1),
        controls=np.zeros((1, 2), dtype=np.int64),
    )
    with pytest.raises(np.linalg.LinAlgError):
        girsanov_log_terms(spec, batch)
    # the same rows away from x1 == 0 evaluate
    assert np.all(np.isfinite(sup_hamiltonian_batch(spec, 0.2, X[:1], Z[:1])))


# -- diagonal specs through the kernel and the change of measure ----------------


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_diagonal_division_matches_the_lapack_path_end_to_end(d, n, seed):
    """A diagonal spec gives the bits of its LAPACK twin, the same spec with ``sigma_diagonal`` cleared."""
    rng = np.random.default_rng(seed)
    sigma = [
        f"{rng.uniform(0.5, 2.0)!r}+0.3*tanh(x{i + 1}-{rng.uniform(-1, 1)!r}*t)" if i == j else "0"
        for i in range(d)
        for j in range(d)
    ]
    f = tuple(f"{rng.uniform(-2, 2)!r}*a1+{rng.uniform(-1, 1)!r}*x{j + 1}*a2" for j in range(d))
    spec = _custom(sigma, dim=d, f=f)
    assert spec.coefficients.sigma_diagonal
    lapack = _lapack_twin(spec)
    X = rng.uniform(-2.0, 2.0, size=(n, d))
    Z = rng.standard_normal((n, d)) * np.exp(rng.uniform(-3.0, 3.0, size=(n, 1)))
    ts = rng.uniform(0.0, 1.0, size=n)
    assert sup_hamiltonian_batch(spec, ts, X, Z).tobytes() == sup_hamiltonian_batch(lapack, ts, X, Z).tobytes()
    # the whole control table, which decides the maximiser the finite-difference step records
    assert _control_values(spec, ts, X, Z).tobytes() == _control_values(lapack, ts, X, Z).tobytes()
    steps = 3
    states = rng.uniform(-2.0, 2.0, size=(n, steps + 1, d))
    batch = PathBatch(
        grid=TimeGrid(0.0, 1.0, steps),
        states=states,
        increments=rng.standard_normal((n, steps, d)) * 0.5,
        controls=rng.integers(0, spec.controls.k, size=(n, steps)),
    )
    assert girsanov_log_terms(spec, batch).tobytes() == girsanov_log_terms(lapack, batch).tobytes()


# -- sigma_apply ---------------------------------------------------------------


def _entries(draw, shape):
    """Mixed-scale entries that include exact and negative zeros."""
    vals = _signed_magnitudes(draw, shape).ravel()
    zeros = draw(st.lists(st.sampled_from([None, 0.0, -0.0]), min_size=vals.size, max_size=vals.size))
    for i, z in enumerate(zeros):
        if z is not None:
            vals[i] = z
    return vals.reshape(shape)


@st.composite
def apply_inputs(draw, dims):
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(1, 8))
    constant = draw(st.booleans())
    if constant:
        sig = np.broadcast_to(_entries(draw, (d, d)), (n, d, d))
    else:
        sig = _entries(draw, (n, d, d))
    return sig, _entries(draw, (n, d))


def _loop_oracle(sig, V):
    """sum_j sig[r, i, j] * V[r, j] in Python floats, from 0.0 with j ascending."""
    n, d = V.shape
    out = np.empty((n, d))
    for r in range(n):
        for i in range(d):
            acc = 0.0
            for j in range(d):
                acc = acc + float(sig[r, i, j]) * float(V[r, j])
            out[r, i] = acc
    return out


@settings(max_examples=60, deadline=None)
@given(inputs=apply_inputs(dims=[1, 2, 3, 4, 5]))
def test_apply_is_the_zero_started_ascending_sum(inputs):
    sig, V = inputs
    assert sigma_apply(sig, V).tobytes() == _loop_oracle(sig, V).tobytes()


@settings(max_examples=60, deadline=None)
@given(inputs=apply_inputs(dims=[1, 2]))
def test_apply_equals_the_path_einsum_bitwise_up_to_d2(inputs):
    """The Euler step sigma dB, formerly einsum('nij,nj->ni'), and the row dots
    of the change of measure, formerly einsum('nd,nd->n')."""
    sig, V = inputs
    assert sigma_apply(sig, V).tobytes() == np.einsum("nij,nj->ni", sig, V).tobytes()
    dot = sigma_apply(sig[:, :1, :], V)[:, 0]
    assert dot.tobytes() == np.einsum("nd,nd->n", np.ascontiguousarray(sig[:, 0, :]), V).tobytes()


@settings(max_examples=60, deadline=None)
@given(inputs=apply_inputs(dims=[3, 4, 5]))
def test_apply_matches_the_path_einsum_from_d3(inputs):
    """From d = 3 einsum splits the sum over SIMD lanes, so only a diagonal
    sigma (every other product an exact zero) keeps its bits; a full sigma
    agrees to the rounding of a d-term sum."""
    sig, V = inputs
    got = sigma_apply(sig, V)
    ref = np.einsum("nij,nj->ni", sig, V)
    scale = np.einsum("nij,nj->ni", np.abs(sig), np.abs(V))
    assert np.all(np.abs(got - ref) <= 2 * sig.shape[1] * EPS * scale)
    d = sig.shape[1]
    diag = np.zeros(sig.shape)
    diag[:, np.arange(d), np.arange(d)] = np.diagonal(sig, axis1=1, axis2=2)
    assert sigma_apply(diag, V).tobytes() == np.einsum("nij,nj->ni", diag, V).tobytes()
