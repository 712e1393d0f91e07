"""Regression Monte-Carlo for the discretely reflected backward equation.

Paths are simulated once under the driftless reference dynamics; the
backward pass regresses conditional expectations slice by slice:

    Y_N = g(X_N)
    C_i      = Reg[ Y_{i+1} | X_i ]
    Z_i      = Reg[ (Y_{i+1} - C_i) dB_i | X_i ] / dt
    Ytilde_i = C_i + H*(tau_i, X_i, Z_i) dt
    Y_i      = max(Ytilde_i, h(tau_i, X_i)),   dK_i = Y_i - Ytilde_i

so the discrete complementarity dK >= 0, dK > 0 only where Y = h, holds
bit-for-bit.  Subtracting the continuation C_i before the Z regression is a
control variate: E[C_i dB_i | X_i] = 0, but its sample noise would otherwise
enter Z, and the max over controls in H* turns noise in Z into upward bias
(Bender & Steiner 2012; Alanko & Avellaneda 2013).  Both regressions of a
slice share one factorisation of its design.

The default basis is a piecewise-constant local partition (cell means are
genuine conditional expectations); a global polynomial basis is available
for smooth problems.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hamilton import TruncationIndex, cutoff_batch, sup_hamiltonian_batch, truncate_values
from .model import Box, ProblemSpec, dominating_generator_batch
from .paths import PathBatch

__all__ = [
    "RegressionBasis",
    "BackwardSolveResult",
    "MCLadderReport",
    "solve_rbsde",
    "skorokhod_residual",
    "truncation_ladder_mc",
    "SingularRegressionError",
]


class SingularRegressionError(RuntimeError):
    """Raised when a slice's design matrix is numerically singular."""

    def __init__(self, node: int, cond: float):
        super().__init__(
            f"singular regression at node {node}: condition number {cond:.3g} above threshold"
        )
        self.node = node
        self.cond = cond


@dataclass(frozen=True)
class RegressionBasis:
    """Conditional-expectation estimator: 'local-partition' or 'polynomial'."""

    kind: str = "local-partition"
    cells_per_axis: int = 25
    degree: int = 5
    box: Box | None = None
    cond_threshold: float = 1e10

    def __post_init__(self):
        if self.kind not in ("local-partition", "polynomial"):
            raise ValueError("basis kind must be 'local-partition' or 'polynomial'")
        if self.kind == "local-partition" and self.cells_per_axis < 1:
            raise ValueError("cells_per_axis must be >= 1")
        if self.kind == "polynomial" and self.degree < 0:
            raise ValueError("degree must be >= 0")


# a slice whose states are this tightly clustered regresses to a plain mean
_DEGENERATE_SPREAD = 1e-12


def _design(Xs: np.ndarray, degree: int) -> np.ndarray:
    """Monomials of total degree <= ``degree`` in the columns of Xs, [n, p].

    Degree-k monomials are degree-(k-1) ones times one more coordinate, the
    coordinates taken in non-decreasing order so each monomial appears once.
    """
    n, d = Xs.shape
    cols = [np.ones(n)]
    prev = [(cols[0], 0)]
    for _ in range(degree):
        prev = [(col * Xs[:, j], j) for col, first in prev for j in range(first, d)]
        cols.extend(col for col, _ in prev)
    return np.stack(cols, axis=1)


def _regress(basis: RegressionBasis, box: Box, X: np.ndarray, node: int):
    """Factorise one slice's regression; returns (project, diagnostics).

    ``project(targets)`` maps targets [n] or [n, r] to their fitted values at
    each sample's own state.  The factorisation is made once, so every
    target of the slice shares it.
    """
    n, d = X.shape
    spread = float(np.max(np.ptp(X, axis=0))) if n > 1 else 0.0
    if spread < _DEGENERATE_SPREAD:
        def project_mean(targets):
            return np.broadcast_to(targets.mean(axis=0), targets.shape)

        return project_mean, {"cells": 1, "cond": 1.0, "min_count": n}

    if basis.kind == "local-partition":
        cells = basis.cells_per_axis
        if cells**d > 2**22:
            raise ValueError("local partition too fine for this dimension; use a polynomial basis")
        width = (box.hi - box.lo) / cells
        ids = np.clip(((X - box.lo) / width).astype(np.int64), 0, cells - 1)
        flat = np.ravel_multi_index(tuple(ids[:, j] for j in range(d)), (cells,) * d)
        ncells = cells**d
        counts = np.bincount(flat, minlength=ncells)
        occupied = counts > 0
        safe = np.where(occupied, counts, 1)

        def project_cells(targets):
            cols = targets.reshape(n, -1)
            preds = np.empty_like(cols)
            for r in range(cols.shape[1]):
                preds[:, r] = (np.bincount(flat, weights=cols[:, r], minlength=ncells) / safe)[flat]
            return preds.reshape(targets.shape)

        occ = counts[occupied]
        return project_cells, {
            "cells": int(occupied.sum()),
            "cond": 1.0,
            "min_count": int(occ.min()) if occ.size else 0,
        }

    # global polynomial, standardised per slice for conditioning; the thin
    # SVD gives the rank, the condition number and an orthonormal basis U of
    # the design's column space, so fitted values are U U^T targets
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < _DEGENERATE_SPREAD, 1.0, std)
    phi = _design((X - mean) / std, basis.degree)
    U, sv, _ = np.linalg.svd(phi, full_matrices=False)
    rank = int(np.sum(sv > sv[0] * np.finfo(float).eps * max(phi.shape)))
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if cond > basis.cond_threshold or rank < phi.shape[1]:
        raise SingularRegressionError(node, cond)

    def project_poly(targets):
        return U @ (U.T @ targets)

    return project_poly, {"cells": phi.shape[1], "cond": cond, "min_count": n}


@dataclass(frozen=True)
class BackwardSolveResult:
    """Backward pass output on a fixed path batch."""

    grid: object
    basis: RegressionBasis
    y_nodes: np.ndarray        # [n, N+1]
    z_nodes: np.ndarray        # [n, N+1, d]; slot N unused (zero)
    k_increments: np.ndarray   # [n, N+1] >= 0; > 0 only where y = obstacle
    obstacle_nodes: np.ndarray  # h(tau_i, X_i)
    y0: float
    se_y0: float
    y0_samples: np.ndarray     # per-path targets at the root; mean equals Ytilde_0
    diagnostics: dict
    trunc: TruncationIndex | None
    generator: str

    def __post_init__(self):
        for arr in (self.y_nodes, self.z_nodes, self.k_increments, self.obstacle_nodes, self.y0_samples):
            arr.setflags(write=False)

    @property
    def reflection_frequency(self) -> np.ndarray:
        return (self.k_increments > 0).mean(axis=0)


def solve_rbsde(
    spec: ProblemSpec,
    batch: PathBatch,
    basis: RegressionBasis | None = None,
    trunc: TruncationIndex | None = None,
    generator: str = "hstar",
) -> BackwardSolveResult:
    """Backward regression pass over ``batch`` (simulate under the reference measure).

    ``generator`` selects the driver: 'hstar' (optionally truncated via
    ``trunc``) or 'dominating' for the growth-bound majorant.
    """
    if generator not in ("hstar", "dominating"):
        raise ValueError("generator must be 'hstar' or 'dominating'")
    if batch.dim != spec.dim:
        raise ValueError("batch dimension does not match the problem")
    basis = basis or RegressionBasis()
    box = basis.box or spec.domain
    n, N, d = batch.increments.shape
    dt = batch.grid.dt
    times = batch.grid.nodes

    Y = np.empty((n, N + 1))
    Z = np.zeros((n, N + 1, d))
    K = np.zeros((n, N + 1))
    H = np.empty((n, N + 1))

    Y[:, N] = spec.g(batch.states[:, N])
    H[:, N] = spec.h(float(times[N]), batch.states[:, N])

    conds = np.zeros(N)
    cells = np.zeros(N, dtype=np.int64)
    min_counts = np.zeros(N, dtype=np.int64)
    gen0 = 0.0

    for i in range(N - 1, -1, -1):
        t = float(times[i])
        X = batch.states[:, i]
        project, diag = _regress(basis, box, X, i)
        conds[i] = diag["cond"]
        cells[i] = diag["cells"]
        min_counts[i] = diag["min_count"]
        cont = project(Y[:, i + 1])
        Z[:, i] = project((Y[:, i + 1] - cont)[:, None] * batch.increments[:, i]) / dt
        if generator == "dominating":
            gen = dominating_generator_batch(spec, t, X, Z[:, i])
        else:
            gen, _ = sup_hamiltonian_batch(spec, t, X, Z[:, i])
            if trunc is not None:
                gen = truncate_values(gen, cutoff_batch(trunc.n, X), cutoff_batch(trunc.m, X))
        if i == 0:
            gen0 = gen.copy()
        ytilde = cont + gen * dt
        H[:, i] = spec.h(t, X)
        Y[:, i] = np.maximum(ytilde, H[:, i])
        K[:, i] = Y[:, i] - ytilde

    y0_samples = Y[:, 1] + gen0 * dt
    y0 = float(np.mean(Y[:, 0]))
    se_y0 = float(np.std(y0_samples, ddof=1) / math.sqrt(n)) if n > 1 else 0.0

    return BackwardSolveResult(
        grid=batch.grid,
        basis=basis,
        y_nodes=Y,
        z_nodes=Z,
        k_increments=K,
        obstacle_nodes=H,
        y0=y0,
        se_y0=se_y0,
        y0_samples=y0_samples,
        diagnostics={
            "condition_numbers": conds,
            "occupied_cells": cells,
            "min_cell_count": min_counts,
        },
        trunc=trunc,
        generator=generator,
    )


def skorokhod_residual(result: BackwardSolveResult) -> float:
    """max over (path, node) of (y - h) dK; zero when complementarity is exact."""
    return float(np.max((result.y_nodes - result.obstacle_nodes) * result.k_increments))


@dataclass(frozen=True)
class MCLadderComparison:
    axis: str      # 'n' or 'm'
    fixed: int
    low: int
    high: int
    mean_diff: float   # ordered so the theory predicts mean_diff >= 0
    se: float

    @property
    def ok(self) -> bool:
        return self.mean_diff >= -2.0 * self.se


@dataclass(frozen=True)
class MCLadderReport:
    y0: dict
    y0_untruncated: float
    comparisons: tuple[MCLadderComparison, ...]
    exhaustion_gap: float | None  # |y0(n,m) - y0| for cutoff-free pairs, bitwise 0

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.comparisons)


def truncation_ladder_mc(
    spec: ProblemSpec,
    batch: PathBatch,
    basis: RegressionBasis | None = None,
    n_list=(1, 2, 4),
    m_list=(1, 2, 4),
) -> MCLadderReport:
    """Ladder of truncated solves on one common batch, paired comparisons."""
    n_list = tuple(sorted(int(v) for v in n_list))
    m_list = tuple(sorted(int(v) for v in m_list))
    runs = {}
    for nn in n_list:
        for mm in m_list:
            runs[(nn, mm)] = solve_rbsde(spec, batch, basis, trunc=TruncationIndex(n=nn, m=mm))
    base = solve_rbsde(spec, batch, basis)

    npaths = batch.count
    comparisons = []

    def paired(axis, fixed, low, high, lo_key, hi_key):
        # ordering: value at hi_key should dominate value at lo_key
        diff = runs[hi_key].y0_samples - runs[lo_key].y0_samples
        se = float(np.std(diff, ddof=1) / math.sqrt(npaths)) if npaths > 1 else 0.0
        comparisons.append(
            MCLadderComparison(axis=axis, fixed=fixed, low=low, high=high,
                               mean_diff=float(np.mean(diff)), se=se)
        )

    for mm in m_list:
        for n1, n2 in itertools.pairwise(n_list):
            paired("n", mm, n1, n2, (n1, mm), (n2, mm))
    for nn in n_list:
        for m1, m2 in itertools.pairwise(m_list):
            # antitone in m: the smaller m dominates
            paired("m", nn, m1, m2, (nn, m2), (nn, m1))

    exhaustion = None
    cover = spec.domain.radius + 1.0
    big = [key for key in runs if key[0] >= cover and key[1] >= cover]
    if big:
        exhaustion = min(abs(runs[key].y0 - base.y0) for key in big)

    return MCLadderReport(
        y0={key: runs[key].y0 for key in runs},
        y0_untruncated=base.y0,
        comparisons=tuple(comparisons),
        exhaustion_gap=exhaustion,
    )
