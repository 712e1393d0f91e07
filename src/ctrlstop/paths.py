"""Euler path simulation and exponential change-of-measure weights.

Brownian increments are drawn in fixed blocks of 8192 paths, each block from
its own ``SeedSequence((seed, block))`` stream, so a batch is reproducible
bit-for-bit for a given (spec, arguments, seed) no matter how the work is
scheduled, and enlarging the batch keeps existing blocks unchanged.  Each
block is drawn path-major and written transposed into the time-major
increments, so the bits do not depend on the storage order.

A batch is stored time-major: states [N+1, n, d], increments [N, n, d] and
controls [N, n], so one step of every path is one contiguous row.  The public
fields are the transposed, path-major views of those read-only buffers.
Every consumer reads step i through ``_step``; a hand-built path-major batch
goes through the same code as a strided view and gives the same bits.

Every Euler step is ``_euler``'s, also ``strategy.evaluate``'s on its live
rows, which stores no batch; a constant sigma is evaluated once, as one row.
The diffusion step sigma dB is ``model.sigma_apply``, or one product with
the diagonal when ``CoefficientField.sigma_diagonal`` is set (same bits), and
the change-of-measure direction theta = sigma^{-1} f is
``ProblemSpec.sigma_solve``: one summation order and one inversion rule for
every sigma.
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
    batches and is None otherwise.  Simulated fields are views of read-only
    time-major buffers ([N+1, n, d], [N, n, d], [N, n]); ``_step(field, i)``
    is step i of every path, a contiguous row for those buffers.
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


def _step(arr: np.ndarray, i: int) -> np.ndarray:
    """Step i of every path: row i of a path-major [n, N(+1), ...] field."""
    return arr.swapaxes(0, 1)[i]


def _frozen_view(buf: np.ndarray) -> np.ndarray:
    """The path-major view of a time-major buffer, which is made read-only first."""
    buf.setflags(write=False)
    return buf.swapaxes(0, 1)


def _draw_increments(count: int, steps: int, dim: int, dt: float, seed: int) -> np.ndarray:
    """Time-major [steps, count, dim] increments; each block is drawn path-major."""
    out = np.empty((steps, count, dim))
    root = np.sqrt(dt)
    # one opaque item per (path, step) moves its dim values in one copy, so
    # the transposed write is not an inner loop of length dim
    item = np.dtype((np.void, out.itemsize * dim))
    items = out.view(item)[..., 0]
    # one draw buffer for every block; a fresh draw per block grew the heap
    buf = np.empty((min(BLOCK, count), steps, dim))
    for b, start in enumerate(range(0, count, BLOCK)):
        stop = min(start + BLOCK, count)
        rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
        block = rng.standard_normal(out=buf[: stop - start])
        block *= root
        items[:, start:stop] = block.view(item)[..., 0].T
    return out


def _prepare(spec: ProblemSpec, t0: float, x0, grid: TimeGrid, count: int):
    if abs(grid.t0 - t0) > 1e-12:
        raise ValueError("grid.t0 must equal t0")
    if count < 1:
        raise ValueError("count must be positive")
    x0 = np.array(np.atleast_1d(x0), dtype=float)  # an owned copy: the caller keeps theirs
    if x0.size != spec.dim:
        raise ValueError(f"x0 has dimension {x0.size}, spec has {spec.dim}")
    x0.setflags(write=False)
    return x0


def _diffusion(spec: ProblemSpec, sig: np.ndarray, dW: np.ndarray) -> np.ndarray:
    """Rows of sigma dB; a diagonal sigma is one product with ``sigma_apply``'s bits.

    ``+ 0.0`` is ``sigma_apply``'s signed-zero rule: its exact-zero
    off-diagonal products only ever turn a -0.0 into +0.0.
    """
    if spec.coefficients.sigma_diagonal:
        out = np.diagonal(sig, axis1=1, axis2=2) * dW
        out += 0.0
        return out
    return sigma_apply(sig, dW)


def _constant_sigma(spec: ProblemSpec, t0: float, x0: np.ndarray):
    """A constant sigma as one row [1, d, d], which broadcasts against any rows; else None."""
    return spec.sigma(t0, x0) if spec.coefficients.sigma_constant else None


def _euler(spec: ProblemSpec, t: float, X: np.ndarray, dW: np.ndarray, sig=None, drift=None, dt=0.0):
    """Rows of X + drift dt + sigma(t, X) dB, driftless without ``drift``; ``sig`` is ``_constant_sigma``'s."""
    start = X if drift is None else X + drift * dt
    return start + _diffusion(spec, spec.sigma(t, X) if sig is None else sig, dW)


def simulate_uncontrolled(
    spec: ProblemSpec, t0: float, x0, grid: TimeGrid, count: int, seed: int
) -> PathBatch:
    """Euler scheme for the driftless reference dynamics dX = sigma(t,X) dB."""
    x0 = _prepare(spec, t0, x0, grid, count)
    dW = _draw_increments(count, grid.steps, spec.dim, grid.dt, seed)
    states = np.empty((grid.steps + 1, count, spec.dim))
    states[0] = x0
    sig = _constant_sigma(spec, t0, x0)
    for i, t in enumerate(grid.nodes[:-1].tolist()):
        states[i + 1] = _euler(spec, t, states[i], dW[i], sig)
    return PathBatch(
        grid=grid, states=_frozen_view(states), increments=_frozen_view(dW), seed=seed, x0=x0
    )


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
    states = np.empty((grid.steps + 1, count, spec.dim))
    controls = np.empty((grid.steps, count), dtype=np.int64)
    states[0] = x0
    sig = _constant_sigma(spec, t0, x0)
    for i, t in enumerate(grid.nodes[:-1].tolist()):
        X = states[i]
        idx = np.asarray(policy.control_indices(t, X), dtype=np.int64)
        controls[i] = idx
        drift, _ = spec.control_rows(t, X, idx, reward=False)
        states[i + 1] = _euler(spec, t, X, dW[i], sig, drift, grid.dt)
    return PathBatch(
        grid=grid,
        states=_frozen_view(states),
        increments=_frozen_view(dW),
        seed=seed,
        x0=x0,
        controls=_frozen_view(controls),
    )


def _neumaier_sum(terms: np.ndarray) -> np.ndarray:
    """Compensated summation along axis 1; terms [n, N] -> [n]."""
    total = np.zeros(terms.shape[0])
    comp = np.zeros(terms.shape[0])
    for i in range(terms.shape[1]):
        t = _step(terms, i)
        s = total + t
        big = np.abs(total) >= np.abs(t)
        comp += np.where(big, (total - s) + t, (t - s) + total)
        total = s
    return total + comp


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a . b as ``sigma_apply`` of the 1 x d matrix a: same summation order."""
    return sigma_apply(a[:, None, :], b)[:, 0]


def girsanov_log_terms(spec: ProblemSpec, batch: PathBatch) -> np.ndarray:
    """Per-step log-density increments [n, N], a view of a time-major buffer;
    their compensated sum is log M_T.

    Step i contributes theta_i . dB_i - 0.5 |theta_i|^2 dt with
    theta_i = sigma^{-1}(tau_i, X_i) f(tau_i, X_i, a_i).
    """
    if batch.controls is None:
        raise ValueError("batch has no recorded controls; simulate with a policy first")
    times = batch.grid.nodes
    dt = batch.grid.dt
    n, N, _ = batch.increments.shape
    terms = np.empty((N, n))
    for i in range(N):
        t = float(times[i])
        X = _step(batch.states, i)
        fv, _ = spec.control_rows(t, X, _step(batch.controls, i), reward=False)
        theta = spec.sigma_solve(spec.sigma(t, X), fv)
        terms[i] = _row_dot(theta, _step(batch.increments, i)) - 0.5 * dt * _row_dot(theta, theta)
    return terms.T


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
    controls = np.empty((batch.grid.steps, batch.count), dtype=np.int64)
    for i in range(batch.grid.steps):
        controls[i] = policy.control_indices(float(times[i]), _step(batch.states, i))
    return replace(batch, controls=_frozen_view(controls))
