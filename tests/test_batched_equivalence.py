"""Batched policy, forward and change-of-measure layers against per-control loops.

Each oracle below evaluates the coefficients one control (or one slice) at a
time, the way the layers did before they were batched; the batched layers
must reproduce them bit for bit on a 2-d problem whose sigma depends on the
state and on time.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ctrlstop import pde
from ctrlstop.hamilton import sup_hamiltonian_batch
from ctrlstop.model import build_builtin
from ctrlstop.paths import (
    TimeGrid,
    _neumaier_sum,
    attach_controls,
    girsanov_log_terms,
    simulate_controlled,
    simulate_uncontrolled,
)
from ctrlstop.strategy import evaluate, martingale_check

X0 = np.array([0.8, 0.6])


@pytest.fixture(scope="module")
def spec():
    gain = "max(1-0.5*x1-0.5*x2,0)"
    return build_builtin(
        "custom",
        {
            "dim": 2,
            "T": 1.0,
            "sigma": ("0.8+0.2*tanh(x1)", "0.1*tanh(x2-t)", "0.05", "0.8+0.2*tanh(x2+t)"),
            "f": ("a1+0.1*tanh(x2)", "a2"),
            "gamma": "-0.2*(a1*a1+a2*a2)+0.05*x1*a2+0.3*(t-0.5)*a1",
            "g": gain,
            "h": f"{gain}*(1+0.5*(1-t))",
            "controls": [[a1, a2] for a1 in (-1.0, 0.0, 1.0) for a2 in (-1.0, 0.0, 1.0)],
            "growth": {"C_f": 2.0, "C_sigma_inv": 2.0, "C_poly": 10.0, "p": 1.0},
            "lo": -3.0,
            "hi": 3.0,
        },
    )


@pytest.fixture(scope="module")
def field(spec):
    return pde.solve(spec, pde.make_grid(spec, nx=21))


@pytest.fixture(scope="module")
def policy(spec, field):
    return pde.extract_policy(spec, field)


def _old_argmax(spec, field):
    """One gradient, one sigma and one kernel call per time slice."""
    grid = field.grid
    X = grid.nodes()
    out = np.empty((grid.nt + 1, *grid.shape), dtype=np.int16)
    for i, t in enumerate(grid.times):
        grads = np.gradient(field.values[i], *grid.axes, edge_order=1)
        G = np.stack([g.ravel() for g in grads], axis=1)
        Z = np.einsum("ni,nij->nj", G, spec.sigma(float(t), X))
        out[i] = sup_hamiltonian_batch(spec, float(t), X, Z)[1].reshape(grid.shape)
    return out


@pytest.mark.parametrize("block_rows", [pde.POLICY_BLOCK_ROWS, 1000, 1])
def test_slice_batched_argmax_matches_the_per_slice_loop(spec, field, monkeypatch, block_rows):
    monkeypatch.setattr(pde, "POLICY_BLOCK_ROWS", block_rows)
    policy = pde.extract_policy(spec, field)
    oracle = _old_argmax(spec, field)
    assert len(np.unique(oracle)) > 1
    assert np.array_equal(policy.argmax, oracle)


def _old_simulate(spec, policy, grid, count, seed):
    """Euler steps with the drift filled in one control at a time."""
    dW = simulate_uncontrolled(spec, 0.0, X0, grid, count, seed).increments
    states = np.empty((count, grid.steps + 1, spec.dim))
    controls = np.empty((count, grid.steps), dtype=np.int64)
    states[:, 0] = X0
    for i in range(grid.steps):
        t = float(grid.nodes[i])
        X = states[:, i]
        idx = np.asarray(policy.control_indices(t, X), dtype=np.int64)
        controls[:, i] = idx
        drift = np.zeros_like(X)
        for k in np.unique(idx):
            sel = idx == k
            drift[sel] = spec.f(t, X[sel], spec.controls.points[k])
        sig = spec.sigma(t, X)
        states[:, i + 1] = X + drift * grid.dt + np.einsum("nij,nj->ni", sig, dW[:, i])
    return states, controls


def _old_evaluate(spec, policy, grid, count, seed):
    states, controls = _old_simulate(spec, policy, grid, count, seed)
    running = np.zeros(count)
    collected = np.zeros(count)
    alive = np.ones(count, dtype=bool)
    stopped = np.zeros(count, dtype=bool)
    for i in range(grid.steps):
        t = float(grid.nodes[i])
        X = states[:, i]
        fire = alive & np.asarray(policy.stop_at(t, X), dtype=bool)
        if fire.any():
            collected[fire] = spec.h(t, X[fire])
            stopped[fire] = True
            alive[fire] = False
        if not alive.any():
            break
        idx = controls[:, i]
        for k in np.unique(idx[alive]):
            sel = alive & (idx == k)
            running[sel] += spec.gamma(t, X[sel], spec.controls.points[int(k)]) * grid.dt
    terminal = np.zeros(count)
    if alive.any():
        terminal[alive] = spec.g(states[:, -1][alive])
    reward = running + collected + terminal
    mean = float(np.mean(running)) + float(np.mean(collected)) + float(np.mean(terminal))
    stderr = float(np.std(reward, ddof=1) / math.sqrt(count))
    return states, controls, mean, stderr, float(np.mean(running)), float(np.mean(stopped))


def test_evaluate_matches_the_per_control_loop(spec, policy):
    grid = TimeGrid(0.0, 1.0, 12)
    states, controls, mean, stderr, running, stopped = _old_evaluate(spec, policy, grid, 3000, 5)
    assert len(np.unique(controls)) > 2
    assert 0.0 < stopped < 1.0
    batch = simulate_controlled(spec, policy, 0.0, X0, grid, 3000, 5)
    assert np.array_equal(batch.states, states)
    assert np.array_equal(batch.controls, controls)
    est = evaluate(spec, policy, grid, X0, 3000, seed=5)
    assert (est.mean, est.stderr) == (mean, stderr)
    assert est.breakdown.running == running
    assert est.breakdown.fraction_stopped_early == stopped


def _old_log_terms(spec, batch):
    """Per-step log-density increments with theta solved one control at a time."""
    n, N, d = batch.increments.shape
    terms = np.empty((n, N))
    for i in range(N):
        t = float(batch.grid.nodes[i])
        X = batch.states[:, i]
        idx = batch.controls[:, i]
        theta = np.zeros((n, d))
        for k in np.unique(idx):
            sel = idx == k
            fv = spec.f(t, X[sel], spec.controls.points[k])
            theta[sel] = np.linalg.solve(spec.sigma(t, X[sel]), fv[..., None])[..., 0]
        terms[:, i] = np.einsum("nd,nd->n", theta, batch.increments[:, i]) - 0.5 * batch.grid.dt * np.einsum(
            "nd,nd->n", theta, theta
        )
    return terms


def test_martingale_check_matches_the_per_control_loop(spec, policy):
    grid = TimeGrid(0.0, 1.0, 12)
    labelled = attach_controls(simulate_uncontrolled(spec, 0.0, X0, grid, 3000, 7), policy)
    assert len(np.unique(labelled.controls)) > 2
    terms = _old_log_terms(spec, labelled)
    assert np.array_equal(girsanov_log_terms(spec, labelled), terms)
    m = np.exp(_neumaier_sum(terms))
    est = martingale_check(spec, policy, grid, X0, 3000, seed=7)
    assert est.mean == float(np.mean(m))
    assert est.stderr == float(np.std(m, ddof=1) / math.sqrt(3000))
    assert est.q_moment == float(np.mean(m**1.5))
