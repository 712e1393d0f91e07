"""Reference forms the tests replay against the package's one-pass loops, and the problems they share."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

from ctrlstop.expr import parse_expression
from ctrlstop.model import build_builtin
from ctrlstop.paths import _log_density_step, _step


def per_control(spec, t, X, a):
    """Drift [n, d] and running reward [n] of every row of X under the one control ``a``.

    The spec's f and gamma expressions are parsed again here from their
    ``source`` text and evaluated one row at a time, x_j bound to a
    one-element array and a_j to a[j]; ``t`` is a scalar or one time per row.
    """
    c = spec.coefficients
    f_trees = [parse_expression(e.source) for e in c.f_exprs]
    gamma_tree = parse_expression(c.gamma_expr.source)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    ts = np.broadcast_to(np.asarray(t, dtype=float), X.shape[:1])
    F = np.empty(X.shape)
    G = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        env = {**(c.params or {}), "t": float(ts[i])}
        env.update({f"x{j + 1}": X[i : i + 1, j] for j in range(X.shape[1])})
        env.update({f"a{j + 1}": a[j] for j in range(a.size)})
        F[i] = [np.broadcast_to(tree(env), (1,))[0] for tree in f_trees]
        G[i] = np.broadcast_to(gamma_tree(env), (1,))[0]
    return F, G


def girsanov_log_terms(spec, batch) -> np.ndarray:
    """Per-step log-density terms [n, N] of a batch with recorded controls.

    Step i is ``_log_density_step`` on the batch's own states, controls and
    increments, so the per-row Neumaier sum of the terms is
    ``girsanov_log_batch``'s log M_T bit for bit.
    """
    times = batch.grid.nodes
    n, N, _ = batch.increments.shape
    terms = np.empty((N, n))
    for i in range(N):
        t = float(times[i])
        X = _step(batch.states, i)
        terms[i] = _log_density_step(
            spec, t, X, spec.sigma(t, X), _step(batch.controls, i), _step(batch.increments, i), batch.grid.dt
        )
    return terms.T


def benchmark_spec(name: str):
    """The problem of benchmark workload ``name``, as ``perfbench/workloads.py`` builds it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(module_spec)
    sys.modules[module_spec.name] = module  # its dataclasses resolve their annotations there
    module_spec.loader.exec_module(module)
    return module.build_spec(name)


def random_1d_spec(p, lift=0.0, shift=0.0):
    """Expression-backed 1-d problem on [-2, 2] with state- and time-dependent
    sigma, drift, reward and obstacle, from nine shares ``p`` in [0, 1];
    h(T, .) <= g, ``lift`` raises h and ``shift`` raises both g and h."""
    gain = f"(max({0.5 + p[0]}-x1,0)+{0.3 * p[1]}*x1)"
    return build_builtin(
        "custom",
        {
            "dim": 1,
            "T": 1.0,
            "sigma": [f"{0.3 + 0.4 * p[2]}+{0.2 * p[3]}*tanh(x1+t)"],
            "f": [f"a1*(1+{0.5 * p[4]}*tanh(x1))"],
            "gamma": f"{p[5]}*x1-{p[6]}*a1*a1*(1+t)",
            "g": f"{gain}+{shift}",
            "h": f"{gain}*(1+{2.0 * p[7]}*(1-t))-{0.5 * p[8]}+{lift}+{shift}",
            "controls": [[-1.0], [0.0], [1.0]],
            "growth": {"C_f": 2.0, "C_sigma_inv": 10.0, "C_poly": 1e9, "p": 1.0},
            "lo": -2.0,
            "hi": 2.0,
        },
    )
