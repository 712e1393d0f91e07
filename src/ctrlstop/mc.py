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
slice share one factorisation: the cell index of a partition, or for a
polynomial basis the p x p Gram matrix of the design (the design's thin SVD
when the slice is too ill-conditioned for the normal equations).  Z_i is
needed only inside slice i, so it lives one slice at a time and the result
keeps its per-slice mean norm.  Y, K and the obstacle are stored time-major,
so each slice is contiguous; the result exposes them as read-only [n, N+1]
views.  K starts as untouched zeros and a slice writes only the paths it
pushes, so nodes without reflections cost no resident memory; an obstacle
that ignores the state is stored once per node and broadcast over paths.

The default basis is a piecewise-constant local partition (cell means are
genuine conditional expectations); a global polynomial basis is available
for smooth problems.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hamilton import TruncationIndex, check_generator, cutoff_batch, ladder_pairs, sup_hamiltonian_batch, truncate_values
from .model import Box, ProblemSpec, dominating_generator_batch
from .paths import PathBatch, _step

__all__ = [
    "RegressionBasis",
    "BackwardSolveResult",
    "MCLadderReport",
    "solve_rbsde",
    "skorokhod_residual",
    "truncation_ladder_mc",
    "SingularRegressionError",
    "COND_THRESHOLD",
]

# a polynomial design whose condition number exceeds this is singular
COND_THRESHOLD = 1e10


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

    def __post_init__(self):
        if self.kind not in ("local-partition", "polynomial"):
            raise ValueError("basis kind must be 'local-partition' or 'polynomial'")
        if self.kind == "local-partition" and self.cells_per_axis < 1:
            raise ValueError("cells_per_axis must be >= 1")
        if self.kind == "polynomial" and self.degree < 0:
            raise ValueError("degree must be >= 0")


# a slice whose states are this tightly clustered regresses to a plain mean
_DEGENERATE_SPREAD = 1e-12
# largest design cond the Gram solve takes; above it the slice falls back to
# the SVD.  G = phi^T phi has cond**2, and eigvalsh resolves its smallest
# eigenvalue only while cond stays well below 1/sqrt(eps), about 7e7
_GRAM_COND_LIMIT = 1e6


def _design(Xs: np.ndarray, degree: int) -> np.ndarray:
    """Monomials of total degree <= ``degree`` in the columns of Xs, [n, p].

    Degree-k monomials are degree-(k-1) ones times one more coordinate, the
    coordinates taken in non-decreasing order so each monomial appears once.
    Each monomial is one contiguous row of a [p, n] buffer; the result is
    that buffer's transpose.
    """
    n, d = Xs.shape
    XT = np.ascontiguousarray(Xs.T)
    out = np.empty((math.comb(d + degree, degree), n))
    out[0] = 1.0
    prev = [(0, 0)]
    c = 1
    for _ in range(degree):
        nxt = []
        for src, first in prev:
            for j in range(first, d):
                np.multiply(out[src], XT[j], out=out[c])
                nxt.append((c, j))
                c += 1
        prev = nxt
    return out.T


def _regress(basis: RegressionBasis, box: Box, X: np.ndarray, node: int):
    """Factorise one slice's regression; returns (project, diagnostics).

    ``project(targets)`` maps targets [n] or [n, r] to their fitted values at
    each sample's own state.  The factorisation is made once, so every
    target of the slice shares it.  A polynomial slice solves the normal
    equations with its Gram matrix while the design's cond, taken from the
    Gram eigenvalues, is at most _GRAM_COND_LIMIT; above it the thin SVD
    projects, and alone decides SingularRegressionError (cond above
    COND_THRESHOLD or rank deficient).
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

    # global polynomial, standardised per slice for conditioning; fitted
    # values solve the p x p normal equations G c = phi^T targets
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < _DEGENERATE_SPREAD, 1.0, std)
    phi = _design((X - mean) / std, basis.degree)
    G = phi.T @ phi
    eig = np.linalg.eigvalsh(G)
    if eig[0] > 0.0:
        cond = math.sqrt(eig[-1] / eig[0])
        if cond <= _GRAM_COND_LIMIT:
            def project_gram(targets):
                return phi @ np.linalg.solve(G, phi.T @ targets)

            return project_gram, {"cells": phi.shape[1], "cond": cond, "min_count": n}

    # the thin SVD gives the rank, the condition number and an orthonormal
    # basis U of the design's column space, so fitted values are U U^T targets
    U, sv, _ = np.linalg.svd(phi, full_matrices=False)
    rank = int(np.sum(sv > sv[0] * np.finfo(float).eps * max(phi.shape)))
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if cond > COND_THRESHOLD or rank < phi.shape[1]:
        raise SingularRegressionError(node, cond)

    def project_poly(targets):
        return U @ (U.T @ targets)

    return project_poly, {"cells": phi.shape[1], "cond": cond, "min_count": n}


@dataclass(frozen=True)
class BackwardSolveResult:
    """Backward pass output on a fixed path batch."""

    grid: object
    y_nodes: np.ndarray        # [n, N+1]
    k_increments: np.ndarray   # [n, N+1] >= 0; > 0 only where y = obstacle; unpushed entries never written
    obstacle_nodes: np.ndarray  # [n, N+1] h(tau_i, X_i); stride 0 along paths when h ignores the state
    y0: float
    se_y0: float
    y0_samples: np.ndarray     # per-path targets at the root; mean equals Ytilde_0
    diagnostics: dict          # per-slice; mean_abs_z is [N+1] with 0.0 at N

    def __post_init__(self):
        for arr in (self.y_nodes, self.k_increments, self.obstacle_nodes, self.y0_samples, *self.diagnostics.values()):
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
    check_generator(generator, trunc)
    if batch.dim != spec.dim:
        raise ValueError("batch dimension does not match the problem")
    basis = basis or RegressionBasis()
    n, N, _ = batch.increments.shape
    dt = batch.grid.dt
    times = batch.grid.nodes

    # time-major, so each slice is one contiguous row; an obstacle that
    # ignores the state takes one column, evaluated at the first path
    hcols = n if "x" in spec.coefficients.reads("h") else 1
    Y = np.empty((N + 1, n))
    K = np.zeros((N + 1, n))
    H = np.empty((N + 1, hcols))

    # a step of a simulated batch is already a contiguous row; a path-major one is copied
    X = np.ascontiguousarray(_step(batch.states, N))
    Y[N] = spec.g(X)
    H[N] = spec.h(float(times[N]), X[:hcols])

    conds = np.zeros(N)
    cells = np.zeros(N, dtype=np.int64)
    min_counts = np.zeros(N, dtype=np.int64)
    mean_abs_z = np.zeros(N + 1)
    gen0 = 0.0

    for i in range(N - 1, -1, -1):
        t = float(times[i])
        X = np.ascontiguousarray(_step(batch.states, i))
        project, diag = _regress(basis, spec.domain, X, i)
        conds[i] = diag["cond"]
        cells[i] = diag["cells"]
        min_counts[i] = diag["min_count"]
        cont = project(Y[i + 1])
        z = project((Y[i + 1] - cont)[:, None] * _step(batch.increments, i)) / dt
        del project  # frees this slice's design before the next one is built
        mean_abs_z[i] = np.mean(np.linalg.norm(z, axis=1))
        if generator == "dominating":
            gen = dominating_generator_batch(spec, t, X, z)
        else:
            gen = sup_hamiltonian_batch(spec, t, X, z)
            if trunc is not None:
                gen = truncate_values(gen, cutoff_batch(trunc.n, X), cutoff_batch(trunc.m, X))
        if i == 0:
            gen0 = gen.copy()
        ytilde = cont + gen * dt
        H[i] = spec.h(t, X[:hcols])
        np.maximum(ytilde, H[i], out=Y[i])
        # a path not pushed keeps K's +0.0 unwritten; NaN compares unequal, so it is pushed
        pushed = np.flatnonzero(Y[i] != ytilde)
        K[i, pushed] = Y[i, pushed] - ytilde[pushed]

    y0_samples = Y[1] + gen0 * dt
    y0 = float(np.mean(Y[0]))
    se_y0 = float(np.std(y0_samples, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    # read-only bases, so the transposed result views have no writable owner
    for arr in (Y, K, H):
        arr.setflags(write=False)

    return BackwardSolveResult(
        grid=batch.grid,
        y_nodes=Y.T,
        k_increments=K.T,
        obstacle_nodes=np.broadcast_to(H, (N + 1, n)).T,
        y0=y0,
        se_y0=se_y0,
        y0_samples=y0_samples,
        diagnostics={
            "condition_numbers": conds,
            "occupied_cells": cells,
            "min_cell_count": min_counts,
            "mean_abs_z": mean_abs_z,
        },
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
    exhaustion_gap: float  # |y0(n,m) - y0| at the pair covering the paths, bitwise 0

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
    """Ladder of truncated solves on one common batch, paired comparisons.

    Only the root of each solve is kept: its y0 and per-path y0_samples.
    Exhaustion is measured at the pair covering the largest |x| of the batch:
    its listed y0, or one more solve when the lists miss it.
    """
    n_list = tuple(sorted(int(v) for v in n_list))
    m_list = tuple(sorted(int(v) for v in m_list))
    y0, samples = {}, {}
    for key in itertools.product(n_list, m_list):
        run = solve_rbsde(spec, batch, basis, trunc=TruncationIndex(*key))
        y0[key], samples[key] = run.y0, run.y0_samples
        del run  # frees this solve's per-path arrays before the next one
    base_y0 = solve_rbsde(spec, batch, basis).y0
    reach = float(np.max(np.linalg.norm(batch.states, axis=-1)))
    cover = TruncationIndex.covering(reach)
    key = (cover.n, cover.m)
    cover_y0 = y0[key] if key in y0 else solve_rbsde(spec, batch, basis, trunc=cover).y0

    npaths = batch.count
    comparisons = []
    for axis, fixed, low, high, below, above in ladder_pairs(n_list, m_list):
        diff = samples[above] - samples[below]
        se = float(np.std(diff, ddof=1) / math.sqrt(npaths)) if npaths > 1 else 0.0
        comparisons.append(
            MCLadderComparison(axis=axis, fixed=fixed, low=low, high=high,
                               mean_diff=float(np.mean(diff)), se=se)
        )

    return MCLadderReport(
        y0=y0,
        y0_untruncated=base_y0,
        comparisons=tuple(comparisons),
        exhaustion_gap=abs(cover_y0 - base_y0),
    )
