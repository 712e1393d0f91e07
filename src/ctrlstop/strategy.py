"""Forward evaluation of feedback strategies and martingale diagnostics.

A strategy is anything with ``control_indices(t, X) -> int array`` and
``stop_at(t, X) -> bool array``; a solved ``pde.ValueField`` qualifies, read
at the nearest node.  Each challenger of ``default_challengers`` is such a
pair of callables put together from existing parts: the policy's own
methods, a constant policy's control rule, a seeded random control, and
rules that stop at once or never.  ``evaluate`` asks ``stop_at`` first at
each step, and both only about live rows: a policy answers row by row.  The
paths run ``paths.CHUNK`` at a time, so a policy that answers row by row
gives each path the same reward whatever the count.  The one that does not
is the random-control challenger: it draws one control per row it is asked
about, so above ``CHUNK`` paths its draws, and its estimate, depend on the
chunking.

The reward of one path stopped at node i is

    sum_{j<i} Gamma(tau_j, X_j, a_j) dt + h(tau_i, X_i)          (i < N)
    sum_{j<N} Gamma(tau_j, X_j, a_j) dt + g(X_N)                 (i = N)

with no running reward accrued on the stopping node itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .model import ProblemSpec
from .paths import TimeGrid, girsanov_log_batch
from .paths import _euler, _increment_chunks, _prepare
from .paths import simulate_controlled  # noqa: F401  unused; perfbench/spans.py wraps this binding

__all__ = [
    "Breakdown",
    "PayoffEstimate",
    "ChallengerRow",
    "OptimalityReport",
    "ConstantPolicy",
    "evaluate",
    "default_challengers",
    "optimality_gap",
    "martingale_check",
    "SCHEME_BUDGET_REL",
    "MOMENT_Q",
]

# discretisation budget of optimality_gap and acceptance check 2: relative share of max(0.1, |v|)
SCHEME_BUDGET_REL = 0.015
# order q of the density moment E[M_T^q] that martingale_check reports
MOMENT_Q = 1.5


@dataclass(frozen=True)
class Breakdown:
    running: float
    obstacle: float
    terminal: float
    fraction_stopped_early: float


@dataclass(frozen=True)
class PayoffEstimate:
    """Monte-Carlo payoff; ``mean`` is the exact sum of the breakdown parts."""

    mean: float
    stderr: float
    count: int
    breakdown: Breakdown
    q_moment: float | None = None


class ConstantPolicy:
    """Fixed control index, never stops before the horizon."""

    def __init__(self, index: int = 0):
        self.index = int(index)

    def control_indices(self, t, X):
        return np.full(X.shape[0], self.index, dtype=np.int64)

    def stop_at(self, t, X):
        return np.zeros(X.shape[0], dtype=bool)


def _never_stop(t, X):
    return np.zeros(X.shape[0], dtype=bool)


def _stop_now(t, X):
    return np.ones(X.shape[0], dtype=bool)


def evaluate(
    spec: ProblemSpec,
    policy,
    grid: TimeGrid,
    x0,
    count: int,
    seed: int = 0,
) -> PayoffEstimate:
    """Simulate ``count`` controlled paths, stepping only the live ones, and average the stopped reward.

    The paths run ``CHUNK`` at a time on that chunk's increments, so memory
    does not grow with ``count``; the per-path sums are full length.  A
    path's reward does not depend on the chunking as long as the policy
    answers row by row.  Live rows are gathered with ``np.flatnonzero`` and
    ``take``: a boolean-mask selection of the same rows costs several times more.
    """
    x0 = _prepare(spec, float(grid.t0), x0, grid, count)
    running = np.zeros(count)
    collected = np.zeros(count)
    terminal = np.zeros(count)
    survivors = 0
    steps = grid.nodes[:-1].tolist()

    for start, dW in _increment_chunks(count, grid.steps, spec.dim, grid.dt, seed):
        rows = dW.shape[1]
        # this chunk's part of each sum, indexed by row within the chunk
        run, col, term = (a[start : start + rows] for a in (running, collected, terminal))
        live = np.arange(rows)  # chunk row of each live path, ascending
        X = np.tile(x0, (rows, 1))
        for i, t in enumerate(steps):
            fire = np.asarray(policy.stop_at(t, X), dtype=bool)
            if fire.any():
                hit, keep = np.flatnonzero(fire), np.flatnonzero(~fire)
                col[live.take(hit)] = spec.h(t, X.take(hit, axis=0))
                live, X = live.take(keep), X.take(keep, axis=0)
                if live.size == 0:
                    break
            drift, G = spec.control_rows(t, X, policy.control_indices(t, X))
            run[live] += G * grid.dt
            X = _euler(spec, t, X, dW[i].take(live, axis=0), drift=drift, dt=grid.dt)
        if live.size:
            term[live] = spec.g(X)
        survivors += live.size

    reward = running + collected + terminal
    mean_run = float(np.mean(running))
    mean_obs = float(np.mean(collected))
    mean_term = float(np.mean(terminal))
    stderr = float(np.std(reward, ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    return PayoffEstimate(
        mean=mean_run + mean_obs + mean_term,
        stderr=stderr,
        count=count,
        breakdown=Breakdown(
            running=mean_run,
            obstacle=mean_obs,
            terminal=mean_term,
            fraction_stopped_early=(count - survivors) / count,
        ),
    )


def default_challengers(spec: ProblemSpec, policy, seed: int = 0):
    """Named suboptimal variants of a policy, such as a solved field: each pairs a control rule with a stop rule."""
    k = spec.controls.k
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0)))

    def random_control(t, X):
        return rng.integers(0, k, size=X.shape[0], dtype=np.int64)

    def variant(control_indices, stop_at):
        return SimpleNamespace(control_indices=control_indices, stop_at=stop_at)

    rows = []
    for j in range(k):
        label = ",".join(repr(float(v)) for v in spec.controls.points[j])
        rows.append((f"constant control ({label})", variant(ConstantPolicy(j).control_indices, policy.stop_at)))
    rows.append(("uniform random control", variant(random_control, policy.stop_at)))
    rows.append(("optimal control, stop immediately", variant(policy.control_indices, _stop_now)))
    rows.append(("optimal control, never stop early", variant(policy.control_indices, _never_stop)))
    return rows


@dataclass(frozen=True)
class ChallengerRow:
    name: str
    estimate: PayoffEstimate
    gap: float          # challenger mean - optimal mean; should not be significantly > 0
    se_combined: float

    @property
    def ok(self) -> bool:
        return self.gap <= 2.0 * self.se_combined


@dataclass(frozen=True)
class OptimalityReport:
    optimal: PayoffEstimate
    field_value: float
    field_gap: float
    field_budget: float
    rows: tuple[ChallengerRow, ...]

    @property
    def field_ok(self) -> bool:
        return self.field_gap <= self.field_budget

    @property
    def passed(self) -> bool:
        return self.field_ok and all(r.ok for r in self.rows)


def optimality_gap(
    spec: ProblemSpec,
    field,
    grid: TimeGrid,
    x0,
    count: int,
    seed: int = 0,
) -> OptimalityReport:
    """Check a solved field's own strategy against its value and challengers.

    The simulated optimal payoff must match the field value within Monte-Carlo
    noise plus a discretisation budget, and no challenger may beat it by more
    than two combined standard errors.  Every challenger runs on the optimal
    run's seed, so all of them see the same Brownian increments.
    """
    optimal = evaluate(spec, field, grid, x0, count, seed)
    v0 = float(field.at(float(grid.t0), np.asarray(x0, dtype=float)))
    budget = 2.0 * optimal.stderr + SCHEME_BUDGET_REL * max(0.1, abs(v0))
    rows = []
    for name, ch in default_challengers(spec, field, seed=seed):
        est = evaluate(spec, ch, grid, x0, count, seed)
        se = math.hypot(est.stderr, optimal.stderr)
        rows.append(ChallengerRow(name=name, estimate=est, gap=est.mean - optimal.mean, se_combined=se))
    return OptimalityReport(
        optimal=optimal,
        field_value=v0,
        field_gap=abs(optimal.mean - v0),
        field_budget=budget,
        rows=tuple(rows),
    )


def martingale_check(
    spec: ProblemSpec,
    policy,
    grid: TimeGrid,
    x0,
    count: int,
    seed: int = 0,
) -> PayoffEstimate:
    """Mean and ``MOMENT_Q``-th moment of the change-of-measure density for a policy.

    Paths are driftless; the policy only picks the drift theta is built
    from.  The density mean must sit within Monte-Carlo noise of one.
    """
    m = np.exp(girsanov_log_batch(spec, policy, float(grid.t0), x0, grid, count, seed))
    mean = float(np.mean(m))
    stderr = float(np.std(m, ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    return PayoffEstimate(
        mean=mean,
        stderr=stderr,
        count=count,
        breakdown=Breakdown(running=0.0, obstacle=0.0, terminal=mean, fraction_stopped_early=0.0),
        q_moment=float(np.mean(m**MOMENT_Q)),
    )
