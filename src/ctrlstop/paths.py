"""Euler path simulation and exponential change-of-measure weights.

Brownian increments are drawn in fixed blocks of ``BLOCK`` (8192) paths,
each block from its own ``SeedSequence((seed, block))`` stream, so a batch is
reproducible bit-for-bit for a given (spec, arguments, seed) no matter how
the work is scheduled, and enlarging the batch keeps existing blocks
unchanged.  ``_increment_chunks`` is the one writer: each block is drawn
path-major and written transposed into time-major increments, so the bits do
not depend on the storage order.  A stored batch takes every path as one
[N, n, d] chunk; the forward loops take ``CHUNK`` (two blocks of) paths at a
time, written into one reused [N, CHUNK, d] buffer, so their memory does not
grow with the path count.  ``_stderr`` is the one standard error of a
Monte-Carlo mean.

A batch is stored time-major: states [N+1, n, d], increments [N, n, d] and,
from ``simulate_controlled`` only, controls [N, n], so one step of every path
is one contiguous row.  The public fields are the transposed, path-major
views of those read-only buffers.  Every consumer reads step i through
``_step``; a hand-built path-major batch goes through the same code as a
strided view and gives the same bits.

Both stored batches come from one loop, ``_simulate``: driftless with
``controls=None`` when there is no policy, otherwise under the policy's
drift with its controls recorded.  Every Euler step is ``_euler``'s, also
``strategy.evaluate``'s on its live rows and ``girsanov_log_batch``'s,
neither of which stores a batch: both run one chunk of paths at a time.
Sigma is evaluated at every step; a constant sigma comes back as a stride-0
broadcast view, so that costs one view per step.  The diffusion step sigma
dB is ``model.sigma_apply``, or one product with the diagonal when sigma's
expressions make it diagonal (the derived ``CoefficientField.sigma_diagonal``;
same bits), and theta = sigma^{-1} f is ``ProblemSpec.sigma_solve``: one
summation order and one inversion rule for every sigma.  The drift of each
row's control is ``ProblemSpec.control_rows``'s, gathered from the one
control table.  Each step's log-density term is ``_log_density_step``'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ProblemSpec, sigma_apply

__all__ = [
    "TimeGrid",
    "PathBatch",
    "simulate_uncontrolled",
    "simulate_controlled",
    "girsanov_log_batch",
    "BLOCK",
    "CHUNK",
]

BLOCK = 8192
# paths per pass of the forward loops, two whole blocks
CHUNK = 2 * BLOCK


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

    ``controls`` holds the per-step control indices [n, N] that
    ``simulate_controlled`` recorded and is None otherwise; the start point
    is ``states[:, 0]``, and the seed stays with the caller.  Simulated
    fields are views of read-only time-major buffers ([N+1, n, d],
    [N, n, d], [N, n]); ``_step(field, i)`` is step i of every path, a
    contiguous row for those buffers.
    """

    grid: TimeGrid
    states: np.ndarray
    increments: np.ndarray
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


def _items(arr: np.ndarray) -> np.ndarray:
    """A [..., dim] array as one opaque item per leading index.

    A transposed write of items moves each (path, step)'s dim values in one
    copy, so it is not an inner loop of length dim.
    """
    return arr.view(np.dtype((np.void, arr.itemsize * arr.shape[-1])))[..., 0]


def _increment_chunks(count: int, steps: int, dim: int, dt: float, seed: int, rows: int = CHUNK):
    """Yield (first path, dW): time-major [steps, rows, dim] increments of ``rows`` paths at a time.

    ``rows`` is a multiple of ``BLOCK`` or ``count``.  Block b is paths
    [b BLOCK, (b + 1) BLOCK) from ``SeedSequence((seed, b))``, drawn path-major,
    scaled by sqrt(dt) and written transposed into the chunk, so a path's bits
    depend neither on ``rows`` nor on the storage order.  Every block is drawn
    into one buffer and every chunk written into another, so a chunk is valid
    only until the next one is asked for; a fresh draw per block grew the heap.
    A full chunk is that buffer itself, not a view of it.
    """
    root = np.sqrt(dt)
    # the chunk buffer first: the other order raised the peak resident set
    buf = np.empty((steps, min(rows, count), dim))
    items = _items(buf)
    draw = np.empty((min(BLOCK, count), steps, dim))
    for b, start in enumerate(range(0, count, BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
        block = rng.standard_normal(out=draw[: min(BLOCK, count - start)])
        block *= root
        offset = start % rows
        end = offset + len(block)
        items[:, offset:end] = _items(block).T
        if end == buf.shape[1]:
            yield start - offset, buf
        elif start + len(block) == count:
            yield start - offset, buf[:, :end]


def _stderr(samples: np.ndarray) -> float:
    """Standard error of the mean of ``samples``, 0.0 for a single sample."""
    n = len(samples)
    return float(np.std(samples, ddof=1) / math.sqrt(n)) if n > 1 else 0.0


def _prepare(spec: ProblemSpec, t0: float, x0, grid: TimeGrid, count: int):
    if abs(grid.t0 - t0) > 1e-12:
        raise ValueError("grid.t0 must equal t0")
    if count < 1:
        raise ValueError("count must be positive")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.size != spec.dim:
        raise ValueError(f"x0 has dimension {x0.size}, spec has {spec.dim}")
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


def _euler(spec: ProblemSpec, t: float, X: np.ndarray, dW: np.ndarray, sig=None, drift=None, dt=0.0):
    """Rows of X + drift dt + sigma(t, X) dB, driftless without ``drift``; ``sig`` is sigma(t, X) if known."""
    start = X if drift is None else X + drift * dt
    return start + _diffusion(spec, spec.sigma(t, X) if sig is None else sig, dW)


def _simulate(spec: ProblemSpec, policy, t0: float, x0, grid: TimeGrid, count: int, seed: int) -> PathBatch:
    """Stored-batch Euler loop: driftless without ``policy``, else under its drift, recording its controls."""
    x0 = _prepare(spec, t0, x0, grid, count)
    [(_, dW)] = _increment_chunks(count, grid.steps, spec.dim, grid.dt, seed, rows=count)
    states = np.empty((grid.steps + 1, count, spec.dim))
    controls = None if policy is None else np.empty((grid.steps, count), dtype=np.int64)
    states[0] = x0
    drift = None
    for i, t in enumerate(grid.nodes[:-1].tolist()):
        X = states[i]
        if policy is not None:
            idx = np.asarray(policy.control_indices(t, X), dtype=np.int64)
            controls[i] = idx
            drift, _ = spec.control_rows(t, X, idx)
        states[i + 1] = _euler(spec, t, X, dW[i], drift=drift, dt=grid.dt)
    if controls is not None:
        controls = _frozen_view(controls)
    return PathBatch(grid=grid, states=_frozen_view(states), increments=_frozen_view(dW), controls=controls)


def simulate_uncontrolled(
    spec: ProblemSpec, t0: float, x0, grid: TimeGrid, count: int, seed: int
) -> PathBatch:
    """Euler scheme for the driftless reference dynamics dX = sigma(t,X) dB."""
    return _simulate(spec, None, t0, x0, grid, count, seed)


def simulate_controlled(
    spec: ProblemSpec, policy, t0: float, x0, grid: TimeGrid, count: int, seed: int
) -> PathBatch:
    """Euler scheme with feedback drift f(t, X, a) under ``policy``.

    ``policy`` must expose ``control_indices(t, X) -> int array [n]``; the
    control chosen at a node applies on the step leaving it.  The same seed
    reproduces the increments of the uncontrolled batch.
    """
    return _simulate(spec, policy, t0, x0, grid, count, seed)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a . b as ``sigma_apply`` of the 1 x d matrix a: same summation order."""
    return sigma_apply(a[:, None, :], b)[:, 0]


def _log_density_step(spec: ProblemSpec, t: float, X: np.ndarray, sig, idx, dB: np.ndarray, dt: float):
    """Rows of theta . dB - 0.5 |theta|^2 dt with theta = sigma^{-1} f(t, X, a_idx); ``sig`` is sigma(t, X)."""
    fv, _ = spec.control_rows(t, X, idx)
    theta = spec.sigma_solve(sig, fv)
    return _row_dot(theta, dB) - 0.5 * dt * _row_dot(theta, theta)


def girsanov_log_batch(
    spec: ProblemSpec, policy, t0: float, x0, grid: TimeGrid, count: int, seed: int
) -> np.ndarray:
    """log M_T per path of the driftless dynamics, for the drift ``policy`` picks along them.

    M_T = exp( sum_i theta_i . dB_i - 0.5 |theta_i|^2 dt ); an exact discrete
    martingale, E[M_T] = 1 for any adapted control sequence.  The increments
    are ``simulate_uncontrolled``'s for the same seed.  The paths run
    ``CHUNK`` at a time, each chunk in one pass that keeps only its current
    states and increments: each step evaluates sigma once for both the log
    term and the Euler step, asks the policy, and adds the term to a
    compensated (Neumaier) sum per path.  A path's result does not depend
    on the chunking, so the first n of ``count`` paths are those of n paths.
    """
    x0 = _prepare(spec, t0, x0, grid, count)
    out = np.empty(count)
    steps = grid.nodes[:-1].tolist()
    for start, dW in _increment_chunks(count, grid.steps, spec.dim, grid.dt, seed):
        rows = dW.shape[1]
        X = np.tile(x0, (rows, 1))
        total = np.zeros(rows)
        comp = np.zeros(rows)
        for i, t in enumerate(steps):
            sig = spec.sigma(t, X)
            idx = policy.control_indices(t, X)
            term = _log_density_step(spec, t, X, sig, idx, dW[i], grid.dt)
            s = total + term
            big = np.abs(total) >= np.abs(term)
            comp += np.where(big, (total - s) + term, (term - s) + total)
            total = s
            X = _euler(spec, t, X, dW[i], sig)
        out[start : start + rows] = total + comp
    return out
