"""Batched policy, forward and change-of-measure layers against per-control loops.

Each oracle below evaluates the coefficients one control (or one slice) at a
time, the way the layers did before they were batched, with that control's
index on every row of ``control_rows`` (whose values ``test_model.py``
checks against ``oracles.per_control``); the batched layers
must reproduce them bit for bit on a 2-d problem whose sigma depends on the
state and on time.  The policy oracle replays each step of the sweep that
recorded it.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from ctrlstop import pde
from ctrlstop.hamilton import TruncationIndex, first_maximiser
from ctrlstop.model import build_builtin
from ctrlstop.paths import (
    BLOCK,
    TimeGrid,
    girsanov_log_batch,
    simulate_controlled,
    simulate_uncontrolled,
)
from ctrlstop.strategy import evaluate, martingale_check

from oracles import girsanov_log_terms

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


def _correlated_spec():
    """The correlated d=2 spec of tools/output_digest.py's pde-variants."""
    return build_builtin(
        "custom",
        {
            "dim": 2,
            "T": 1.0,
            "sigma": ("1", "0.3", "0.3", "1"),
            "f": ("a1", "a2"),
            "gamma": "0",
            "g": "sqrt(x1*x1+x2*x2)",
            "h": "0.8",
            "controls": [[a1, a2] for a1 in (-1.0, 0.0, 1.0) for a2 in (-1.0, 0.0, 1.0)],
            "growth": {"C_f": 1.5, "C_sigma_inv": 1.5, "C_poly": 10.0, "p": 1.0},
            "lo": -4.0,
            "hi": 4.0,
        },
    )


def _replayed_control(spec, field):
    """Per slice, the first maximiser of the upwind table rebuilt one control
    at a time from values[i+1] at times[i+1]."""
    grid = field.grid
    X = grid.nodes()
    out = np.empty((grid.nt, *grid.shape), dtype=np.int16)
    for i in range(grid.nt):
        W = field.values[i + 1]
        t = float(grid.times[i + 1])
        Wp = np.pad(W, 1, mode="edge")
        if grid.dim == 1:
            up, dn = [Wp[2:]], [Wp[:-2]]
        else:
            up, dn = [Wp[2:, 1:-1], Wp[1:-1, 2:]], [Wp[:-2, 1:-1], Wp[1:-1, :-2]]
        table = np.empty((spec.controls.k, *grid.shape))
        for k in range(spec.controls.k):
            F, G = spec.control_rows(t, X, np.full(len(X), k))
            adv = np.zeros(grid.shape)
            for j in range(grid.dim):
                Fj = F[:, j].reshape(grid.shape)
                fwd = (up[j] - W) / grid.dxs[j]
                bwd = (dn[j] - W) / grid.dxs[j]
                adv = adv + np.maximum(Fj, 0.0) * fwd + np.maximum(-Fj, 0.0) * bwd
            table[k] = adv + G.reshape(grid.shape)
        out[i] = first_maximiser(table)[1]
    return out


@pytest.mark.parametrize("case", ["localvol", "correlated", "truncated"])
def test_recorded_control_is_the_maximiser_of_the_replayed_step(spec, field, case):
    if case == "correlated":
        spec = _correlated_spec()
        field = pde.solve(spec, pde.make_grid(spec, nx=41))
    elif case == "truncated":
        spec = build_builtin("controlled_drift_abs", {"h_floor": 0.8})
        field = pde.solve(spec, pde.make_grid(spec, nx=81), trunc=TruncationIndex(2, 2))
    oracle = _replayed_control(spec, field)
    assert len(np.unique(oracle)) > 1
    assert np.array_equal(field.control[:-1], oracle)
    # every path stops at the horizon; the terminal slice repeats the last step
    assert np.array_equal(field.control[-1], field.control[-2])
    assert field.control.dtype == np.int16 and not field.control.flags.writeable


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
            drift[sel] = spec.control_rows(t, X[sel], np.full(sel.sum(), k))[0]
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
            running[sel] += spec.control_rows(t, X[sel], np.full(sel.sum(), k))[1] * grid.dt
    terminal = np.zeros(count)
    if alive.any():
        terminal[alive] = spec.g(states[:, -1][alive])
    reward = running + collected + terminal
    mean = float(np.mean(running)) + float(np.mean(collected)) + float(np.mean(terminal))
    stderr = float(np.std(reward, ddof=1) / math.sqrt(count))
    return states, controls, mean, stderr, float(np.mean(running)), float(np.mean(stopped))


def test_evaluate_matches_the_per_control_loop(spec, field):
    grid = TimeGrid(0.0, 1.0, 12)
    states, controls, mean, stderr, running, stopped = _old_evaluate(spec, field, grid, 3000, 5)
    assert len(np.unique(controls)) > 2
    assert 0.0 < stopped < 1.0
    batch = simulate_controlled(spec, field, 0.0, X0, grid, 3000, 5)
    assert np.array_equal(batch.states, states)
    assert np.array_equal(batch.controls, controls)
    est = evaluate(spec, field, grid, X0, 3000, seed=5)
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
            fv = spec.control_rows(t, X[sel], np.full(sel.sum(), k))[0]
            theta[sel] = np.linalg.solve(spec.sigma(t, X[sel]), fv[..., None])[..., 0]
        terms[:, i] = np.einsum("nd,nd->n", theta, batch.increments[:, i]) - 0.5 * batch.grid.dt * np.einsum(
            "nd,nd->n", theta, theta
        )
    return terms


def _labelled(batch, policy):
    """``batch`` with the control ``policy`` picks at each node; the drift is not replayed."""
    controls = np.empty((batch.count, batch.grid.steps), dtype=np.int64)
    for i in range(batch.grid.steps):
        controls[:, i] = policy.control_indices(float(batch.grid.nodes[i]), batch.states[:, i])
    return dataclasses.replace(batch, controls=controls)


def _neumaier_sum(terms):
    """Compensated (Neumaier) sum of terms [n, N] along the steps."""
    total = np.zeros(terms.shape[0])
    comp = np.zeros(terms.shape[0])
    for i in range(terms.shape[1]):
        t = terms[:, i]
        s = total + t
        comp += np.where(np.abs(total) >= np.abs(t), (total - s) + t, (t - s) + total)
        total = s
    return total + comp


def _staged_log_density(spec, policy, x0, grid, count, seed):
    """log M_T from a stored driftless batch, labelled, then summed: three passes."""
    batch = _labelled(simulate_uncontrolled(spec, 0.0, x0, grid, count, seed), policy)
    return _neumaier_sum(girsanov_log_terms(spec, batch))


def test_martingale_check_matches_the_per_control_loop(spec, field):
    grid = TimeGrid(0.0, 1.0, 12)
    labelled = _labelled(simulate_uncontrolled(spec, 0.0, X0, grid, 3000, 7), field)
    assert len(np.unique(labelled.controls)) > 2
    terms = _old_log_terms(spec, labelled)
    assert np.array_equal(girsanov_log_terms(spec, labelled), terms)
    m = np.exp(_neumaier_sum(terms))
    est = martingale_check(spec, field, grid, X0, 3000, seed=7)
    assert est.mean == float(np.mean(m))
    assert est.stderr == float(np.std(m, ddof=1) / math.sqrt(3000))
    assert est.q_moment == float(np.mean(m**1.5))


class _SplitPolicy:
    """Control k-1, 1 or 0 by a time-dependent split of the plane."""

    def __init__(self, k):
        self.k = k

    def control_indices(self, t, X):
        return np.where(X[:, 0] > X[:, 1] * t, self.k - 1, np.where(X[:, 1] > 0.0, 1, 0))


def _density_case(name, spec):
    """(spec, policy, x0, grid, count, seed) of one one-pass density case."""
    if name == "localvol-policy":
        # the policy-2d-localvol benchmark problem and its extracted policy, at full size
        gain = "max(1-0.5*x1-0.5*x2,0)"
        local = build_builtin(
            "custom",
            {
                "dim": 2,
                "T": 1.0,
                "sigma": ("0.8+0.2*tanh(x1)", "0", "0", "0.8+0.2*tanh(x2+t)"),
                "f": ("a1", "a2"),
                "gamma": "-0.2*(a1*a1+a2*a2)",
                "g": gain,
                "h": f"{gain}*(1+0.5*(1-t))",
                "controls": [[a1, a2] for a1 in (-1.0, 0.0, 1.0) for a2 in (-1.0, 0.0, 1.0)],
                "growth": {"C_f": 1.5, "C_sigma_inv": 1.0 / 0.6, "C_poly": 10.0, "p": 1.0},
                "lo": -4.0,
                "hi": 4.0,
            },
        )
        field = pde.solve(local, pde.make_grid(local, nx=81))
        return local, field, np.array([0.8, 0.8]), TimeGrid(0.0, 1.0, 50), 50_000, 3
    if name == "state-dependent-sigma":
        return spec, _SplitPolicy(spec.controls.k), np.array([0.3, -0.2]), TimeGrid(0.0, 1.0, 12), BLOCK + 900, 11
    if name == "constant-sigma":
        const = build_builtin(
            "custom",
            {
                "dim": 2,
                "T": 1.0,
                "sigma": ("0.9", "0.3", "-0.2", "0.7"),
                "f": ("a1+0.1*tanh(x2)", "a2"),
                "gamma": "0",
                "g": "0",
                "h": "0",
                "controls": [[a1, a2] for a1 in (-1.0, 0.0, 1.0) for a2 in (-1.0, 0.0, 1.0)],
                "growth": {"C_f": 2.0, "C_sigma_inv": 3.0, "C_poly": 10.0, "p": 1.0},
                "lo": -3.0,
                "hi": 3.0,
            },
        )
        assert not const.coefficients.reads("sigma") and not const.coefficients.sigma_diagonal
        return const, _SplitPolicy(9), np.array([0.3, -0.2]), TimeGrid(0.0, 1.0, 12), BLOCK + 900, 12
    # the feedback policy of acceptance check 8
    push = build_builtin("controlled_drift_abs")
    return push, pde.solve(push, pde.make_grid(push, 201)), np.array([0.5]), TimeGrid(0.0, 1.0, 50), 100_000, 83


@pytest.mark.parametrize("name", ["localvol-policy", "state-dependent-sigma", "constant-sigma", "check-8-feedback"])
def test_one_pass_density_equals_the_staged_passes(spec, name):
    spec, policy, x0, grid, count, seed = _density_case(name, spec)
    got = girsanov_log_batch(spec, policy, 0.0, x0, grid, count, seed)
    want = _staged_log_density(spec, policy, x0, grid, count, seed)
    assert np.any(want != 0.0)
    assert got.shape == (count,) and got.tobytes() == want.tobytes()
