"""Euler path simulation and exponential change-of-measure weights.

Brownian increments are drawn in fixed blocks of 8192 paths, each block from
its own ``SeedSequence((seed, block))`` stream, so a batch is reproducible
bit-for-bit for a given (spec, arguments, seed) no matter how the work is
scheduled, and enlarging the batch keeps existing blocks unchanged.

The diffusion step sigma dB is ``model.sigma_apply`` and the change-of-measure
direction theta = sigma^{-1} f is ``ProblemSpec.sigma_solve``: one summation
order and one inversion rule for every sigma.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import ProblemSpec, sigma_apply

__all__ = [
    "TimeGrid",
    "PathBatch",
    "simulate_uncontrolled",
    "simulate_controlled",
    "attach_controls",
    "girsanov_log_terms",
    "girsanov_log_batch",
    "BLOCK",
]

BLOCK = 8192


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    T: float
    steps: int

    def __post_init__(self):
        if not (self.T > self.t0):
            raise ValueError("need T > t0")
        if self.steps < 1:
            raise ValueError("need at least one step")

    @property
    def dt(self) -> float:
        return (self.T - self.t0) / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.t0, self.T, self.steps + 1)


@dataclass(frozen=True)
class PathBatch:
    """Simulated batch: states [n, N+1, d], increments [n, N, d].

    ``controls`` holds per-step control indices [n, N] for controlled
    batches and is None otherwise.
    """

    grid: TimeGrid
    states: np.ndarray
    increments: np.ndarray
    seed: int
    x0: np.ndarray
    controls: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.states, self.increments):
            arr.setflags(write=False)
        if self.controls is not None:
            self.controls.setflags(write=False)

    @property
    def count(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]


def _draw_increments(count: int, steps: int, dim: int, dt: float, seed: int) -> np.ndarray:
    out = np.empty((count, steps, dim))
    root = np.sqrt(dt)
    for b, start in enumerate(range(0, count, BLOCK)):
        stop = min(start + BLOCK, count)
        rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
        out[start:stop] = rng.standard_normal((stop - start, steps, dim)) * root
    return out


def _prepare(spec: ProblemSpec, t0: float, x0, grid: TimeGrid, count: int):
    if abs(grid.t0 - t0) > 1e-12:
        raise ValueError("grid.t0 must equal t0")
    if count < 1:
        raise ValueError("count must be positive")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.size != spec.dim:
        raise ValueError(f"x0 has dimension {x0.size}, spec has {spec.dim}")
    return x0


def simulate_uncontrolled(
    spec: ProblemSpec, t0: float, x0, grid: TimeGrid, count: int, seed: int
) -> PathBatch:
    """Euler scheme for the driftless reference dynamics dX = sigma(t,X) dB."""
    x0 = _prepare(spec, t0, x0, grid, count)
    dW = _draw_increments(count, grid.steps, spec.dim, grid.dt, seed)
    states = np.empty((count, grid.steps + 1, spec.dim))
    states[:, 0] = x0
    times = grid.nodes
    const_sig = spec.coefficients.sigma_constant
    sig = spec.sigma(t0, states[:, 0]) if const_sig else None
    for i in range(grid.steps):
        if not const_sig:
            sig = spec.sigma(float(times[i]), states[:, i])
        states[:, i + 1] = states[:, i] + sigma_apply(sig, dW[:, i])
    return PathBatch(grid=grid, states=states, increments=dW, seed=seed, x0=x0)


def simulate_controlled(
    spec: ProblemSpec, policy, t0: float, x0, grid: TimeGrid, count: int, seed: int
) -> PathBatch:
    """Euler scheme with feedback drift f(t, X, a) under ``policy``.

    ``policy`` must expose ``control_indices(t, X) -> int array [n]``; the
    control chosen at a node applies on the step leaving it.  The same seed
    reproduces the increments of the uncontrolled batch.
    """
    x0 = _prepare(spec, t0, x0, grid, count)
    dW = _draw_increments(count, grid.steps, spec.dim, grid.dt, seed)
    states = np.empty((count, grid.steps + 1, spec.dim))
    controls = np.empty((count, grid.steps), dtype=np.int64)
    states[:, 0] = x0
    times = grid.nodes
    dt = grid.dt
    const_sig = spec.coefficients.sigma_constant
    sig = spec.sigma(t0, states[:, 0]) if const_sig else None
    for i in range(grid.steps):
        t = float(times[i])
        X = states[:, i]
        idx = np.asarray(policy.control_indices(t, X), dtype=np.int64)
        controls[:, i] = idx
        drift, _ = spec.control_rows(t, X, idx, reward=False)
        if not const_sig:
            sig = spec.sigma(t, X)
        states[:, i + 1] = X + drift * dt + sigma_apply(sig, dW[:, i])
    return PathBatch(
        grid=grid, states=states, increments=dW, seed=seed, x0=x0, controls=controls
    )


def _neumaier_sum(terms: np.ndarray) -> np.ndarray:
    """Compensated summation along axis 1; terms [n, N] -> [n]."""
    total = np.zeros(terms.shape[0])
    comp = np.zeros(terms.shape[0])
    for i in range(terms.shape[1]):
        t = terms[:, i]
        s = total + t
        big = np.abs(total) >= np.abs(t)
        comp += np.where(big, (total - s) + t, (t - s) + total)
        total = s
    return total + comp


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a . b as ``sigma_apply`` of the 1 x d matrix a: same summation order."""
    return sigma_apply(a[:, None, :], b)[:, 0]


def girsanov_log_terms(spec: ProblemSpec, batch: PathBatch) -> np.ndarray:
    """Per-step log-density increments [n, N]; their compensated sum is log M_T.

    Step i contributes theta_i . dB_i - 0.5 |theta_i|^2 dt with
    theta_i = sigma^{-1}(tau_i, X_i) f(tau_i, X_i, a_i).
    """
    if batch.controls is None:
        raise ValueError("batch has no recorded controls; simulate with a policy first")
    times = batch.grid.nodes
    dt = batch.grid.dt
    n, N, _ = batch.increments.shape
    terms = np.empty((n, N))
    for i in range(N):
        t = float(times[i])
        X = batch.states[:, i]
        fv, _ = spec.control_rows(t, X, batch.controls[:, i], reward=False)
        theta = spec.sigma_solve(spec.sigma(t, X), fv)
        terms[:, i] = _row_dot(theta, batch.increments[:, i]) - 0.5 * dt * _row_dot(theta, theta)
    return terms


def girsanov_log_batch(spec: ProblemSpec, batch: PathBatch) -> np.ndarray:
    """log M_T per path for the drift the recorded controls induce.

    M_T = exp( sum_i theta_i . dB_i - 0.5 |theta_i|^2 dt ); an exact discrete
    martingale, E[M_T] = 1 for any adapted control sequence.
    """
    return _neumaier_sum(girsanov_log_terms(spec, batch))


def attach_controls(batch: PathBatch, policy) -> PathBatch:
    """Controls looked up along an existing (typically uncontrolled) batch.

    The drift is *not* replayed; this labels each node with the control the
    policy would pick there, which is what the change-of-measure weight needs.
    """
    times = batch.grid.nodes
    controls = np.empty((batch.count, batch.grid.steps), dtype=np.int64)
    for i in range(batch.grid.steps):
        controls[:, i] = policy.control_indices(float(times[i]), batch.states[:, i])
    return replace(batch, controls=controls)
