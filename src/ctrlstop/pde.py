"""Monotone explicit finite differences for the obstacle HJB equation.

Backward in time from v(T,.) = g, each step applies the discrete generator
and projects onto the obstacle:

    vtilde = v + dt * [ 1/2 Tr(sigma sigma^T D^2 v) + max_a ( f(t,x,a) . D^a v + gamma(t,x,a) ) ]
    v      = max(vtilde, h(t, .))

The same sweep records the projection and the control: a node binds when the
obstacle pushed the step up, v - vtilde > 0, by more than a round-off floor,
and its control is the step's maximiser, the optimal feedback of the scheme's
Markov chain.  Binding nodes store v = h exactly and form the stopping region
(the increasing process K of the reflected BSDE moves only there).  The solved
``ValueField`` is therefore its own strategy: ``control_indices`` and
``stop_at`` read the records at the nearest node, and the complementarity
check reads the stop mask.

First derivatives are upwinded one-sided per drift-component sign, jointly
with the sup over the finite control set, which keeps the scheme monotone
under the recorded CFL bound.  The spatial boundary uses a zero-gradient
(edge replication) extension.  d <= 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hamilton import TruncationIndex, _ladder_runs, check_generator, cutoff_batch, first_maximiser, ladder_pairs, truncate_values
from .hamilton import sup_hamiltonian_batch  # noqa: F401  unused; perfbench/spans.py wraps this binding
from .model import Box, ProblemSpec, dominating_weights

__all__ = [
    "SpaceTimeGrid",
    "ValueField",
    "LadderReport",
    "make_grid",
    "solve",
    "extract_policy",
    "ladder",
]

# strict binding margin: obstacle pushes below this are treated as round-off
BINDING_FLOOR = 1e-9
# make_grid's bound on dt times the outflow rate: the step raises above 1, and the rate is probed at three times only
CFL_TARGET = 0.9
# share of each axis span, centred, that the ladder's core gaps are measured on
CORE_FRACTION = 0.6


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform tensor grid on box x [0, T]."""

    box: Box
    nx: tuple[int, ...]
    nt: int
    horizon_T: float

    def __post_init__(self):
        if len(self.nx) != self.box.dim:
            raise ValueError("nx must give one node count per axis")
        if any(n < 3 for n in self.nx):
            raise ValueError("need at least 3 nodes per axis")
        if self.nt < 1:
            raise ValueError("need at least one time step")

    @property
    def dim(self) -> int:
        return self.box.dim

    @property
    def dt(self) -> float:
        return self.horizon_T / self.nt

    @functools.cached_property
    def dxs(self) -> np.ndarray:
        """Node spacing per axis, computed once per grid (read-only)."""
        out = (self.box.hi - self.box.lo) / (np.asarray(self.nx) - 1)
        out.setflags(write=False)
        return out

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(
            np.linspace(self.box.lo[j], self.box.hi[j], self.nx[j]) for j in range(self.dim)
        )

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon_T, self.nt + 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.nx

    def nodes(self) -> np.ndarray:
        """All grid nodes, flat [n_nodes, d], C order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def core_mask(self) -> np.ndarray:
        """Boolean mask over the spatial shape marking the inner ``CORE_FRACTION`` core."""
        masks = []
        for j in range(self.dim):
            ax = self.axes[j]
            span = self.box.hi[j] - self.box.lo[j]
            margin = 0.5 * (1.0 - CORE_FRACTION) * span
            masks.append((ax >= self.box.lo[j] + margin) & (ax <= self.box.hi[j] - margin))
        out = masks[0]
        for m in masks[1:]:
            out = np.outer(out, m)
        return out.reshape(self.shape)

    def time_index(self, t: float) -> int:
        """Nearest time slice, clipped to [0, nt]."""
        return min(max(int(round(t / self.dt)), 0), self.nt)


@dataclass(frozen=True)
class ValueField:
    """The solved value and the feedback strategy the sweep recorded with it, each read at the nearest node."""

    grid: SpaceTimeGrid
    values: np.ndarray     # [nt+1, *shape]
    stop_mask: np.ndarray  # [nt+1, *shape] bool; the obstacle pushed the step up, final slice all True
    control: np.ndarray    # [nt+1, *shape] int16; step t_{i+1} -> t_i's maximiser, -1 under phi
    scheme_meta: dict

    def __post_init__(self):
        self.values.setflags(write=False)
        self.stop_mask.setflags(write=False)
        self.control.setflags(write=False)

    def _lookup(self, records: np.ndarray, i: int, X) -> np.ndarray:
        """``records`` at the nearest node of each row of X on slice i (constant extension outside the box).

        X is one point [d] or a batch [n, d].  Per axis the index is rounded (half to even) and clipped,
        then folded into one flat node index, so the slice gives every row with one ``take``.
        """
        g = self.grid
        X = np.atleast_2d(np.asarray(X, dtype=float))
        for j in range(g.dim):
            idx = np.rint((X[:, j] - g.box.lo[j]) / g.dxs[j]).astype(np.int64)
            np.maximum(idx, 0, out=idx)
            np.minimum(idx, g.nx[j] - 1, out=idx)
            flat = idx if j == 0 else flat * g.nx[j] + idx
        return records[i].reshape(-1).take(flat)

    def at(self, t: float, x) -> float:
        return float(self._lookup(self.values, self.grid.time_index(t), x)[0])

    def control_indices(self, t: float, X: np.ndarray) -> np.ndarray:
        return self._lookup(self.control, self.grid.time_index(t), X)

    def stop_at(self, t: float, X: np.ndarray) -> np.ndarray:
        # before the horizon, never the final slice: every node stops there
        i = self.grid.time_index(t)
        return self._lookup(self.stop_mask, min(i, self.grid.nt - 1) if t < self.grid.horizon_T else i, X)


def _covariance(sig: np.ndarray):
    """Diagonal entries of sigma sigma^T and, at d=2, the cross entry, [n] each.

    Explicit sums of products; no [n, d, d] covariance is formed.
    """
    d = sig.shape[-1]
    diag = [sum(sig[:, j, m] * sig[:, j, m] for m in range(d)) for j in range(d)]
    cross = sum(sig[:, 0, m] * sig[:, 1, m] for m in range(d)) if d == 2 else None
    return diag, cross


class _Scheme:
    """Precomputed arrays and the single explicit backward step.

    ``fixed`` holds each slice quantity whose coefficients read no t, built
    once at t = 0.0: values, not closures over the scheme, so no cycle.
    """

    def __init__(self, spec: ProblemSpec, grid: SpaceTimeGrid, trunc, generator):
        if spec.dim > 2:
            raise ValueError("the finite-difference solver handles d <= 2 only")
        check_generator(generator, trunc)
        if generator == "dominating" and not spec.coefficients.sigma_diagonal:
            raise ValueError("dominating-generator solves require diagonal sigma")
        self.spec = spec
        self.trunc = trunc
        self.generator = generator
        self.shape = grid.shape
        self.d = grid.dim
        self.dxs = grid.dxs
        self.dt = grid.dt
        self.X = grid.nodes()

        if trunc is not None:
            self.rho_n = cutoff_batch(trunc.n, self.X).reshape(self.shape)
            self.rho_m = cutoff_batch(trunc.m, self.X).reshape(self.shape)

        if generator == "dominating":
            # phi = phi_drift |grad v . sigma| + phi_const
            self.phi_drift, self.phi_const = (w.reshape(self.shape) for w in dominating_weights(spec, self.X))
        self.fixed = {}
        for name in ("diffusion", "h") if generator == "dominating" else self.SLICES:
            build, inputs = self.SLICES[name]
            if not any("t" in spec.coefficients.reads(c) for c in inputs):
                self.fixed[name] = build(self, 0.0)
        self.cfl_worst = 0.0

        # one padded slice per solve; per axis its (first, second, last, second-last) slabs
        self.Wp = np.empty(tuple(s + 2 for s in self.shape))
        inner = (slice(1, -1),) * self.d
        self.inner = self.Wp[inner]
        slabs = [self.Wp.swapaxes(0, j) for j in range(self.d)]
        self.edges = [(e[0, ...], e[1, ...], e[-1, ...], e[-2, ...]) for e in slabs]
        self.up = [self.Wp[inner[:j] + (slice(2, None),) + inner[j + 1 :]] for j in range(self.d)]
        self.dn = [self.Wp[inner[:j] + (slice(None, -2),) + inner[j + 1 :]] for j in range(self.d)]

    # -- coefficient plumbing --------------------------------------------------

    def _diffusion(self, t: float):
        """Per-axis A_jj and sigma_jj, at d=2 A_12 (else None), and the slice's
        diffusion share of the outflow rate [*shape], phi's included; A = sigma sigma^T."""
        sig = self.spec.sigma(t, self.X)
        diag, cross = _covariance(sig)
        A_diag = [a.reshape(self.shape) for a in diag]
        sigma_diag = [sig[:, j, j].reshape(self.shape) for j in range(self.d)]
        rate = sum(A_diag[j] / self.dxs[j] ** 2 for j in range(self.d))
        A_cross = None
        if self.d == 2:
            A_cross = cross.reshape(self.shape)
            cross_rate = np.abs(A_cross) / (self.dxs[0] * self.dxs[1])
            # monotone cross stencil needs grid-aligned diagonal dominance
            dd = np.minimum(
                A_diag[0] / self.dxs[0] ** 2 - cross_rate,
                A_diag[1] / self.dxs[1] ** 2 - cross_rate,
            )
            if float(np.min(dd)) < -1e-12:
                raise ValueError(
                    "diffusion matrix is not diagonally dominant on the grid; "
                    "the cross-derivative stencil would lose monotonicity"
                )
            rate = rate - cross_rate
        if self.generator == "dominating":
            rate = rate + self.phi_drift * sum(np.abs(sigma_diag[j]) / self.dxs[j] for j in range(self.d))
        return A_diag, sigma_diag, A_cross, rate

    def _control_table(self, t: float):
        """Drift components, each [k, *shape], reward [k, *shape] and the drift
        share of the outflow rate, max(max_k sum_j |F_kj|/dx_j, 0), at time t;
        a coefficient that ignores the state keeps unit spatial axes."""
        F, G = self.spec.control_table(t, self.X)

        def spatial(A):
            return A.reshape(A.shape[0], *(self.shape if A.shape[1] == self.X.shape[0] else (1,) * self.d))

        F = [spatial(F[:, :, j]) for j in range(self.d)]
        scale = sum(np.abs(F[j]) / self.dxs[j] for j in range(self.d))
        return F, spatial(G), np.maximum(np.max(scale, axis=0), 0.0)

    # each slice quantity: its builder and the coefficients it reads
    SLICES = {"table": (_control_table, ("f", "gamma")), "diffusion": (_diffusion, ("sigma",)),
              "h": (lambda self, t: self.spec.h(t, self.X).reshape(self.shape), ("h",))}

    def at(self, name: str, t: float):
        """Slice t's "diffusion", "table" or "h"; the one in ``fixed`` if there is one."""
        fixed = self.fixed.get(name)
        return self.SLICES[name][0](self, t) if fixed is None else fixed

    def rate(self, t: float) -> float:
        """Largest outflow rate of slice t; the step is monotone while dt times it is <= 1."""
        rate = self.at("diffusion", t)[-1]
        if self.generator != "dominating":
            rate = rate + self.at("table", t)[-1]
        return float(np.max(rate))

    # -- stencil views ----------------------------------------------------------

    def _views(self, W):
        """W padded by one edge-replicated node per side, as np.pad(W, 1,
        mode="edge") gives it, and the up and down neighbour views per axis.
        Each edge copies the whole next slab, so a corner copies W's corner."""
        self.inner[...] = W
        for first, second, last, second_last in self.edges:
            first[...] = second
            last[...] = second_last
        return self.Wp, self.up, self.dn

    # -- the explicit step -------------------------------------------------------

    def step(self, W: np.ndarray, t: float):
        """One backward step from slice W with coefficients frozen at time t.

        Returns (vtilde, control): the caller projects vtilde on the obstacle;
        control [*shape] is the first maximiser of the upwinded table, or -1
        under the dominating generator, whose majorant has no control.
        """
        A_diag, sigma_diag, A_cross, outflow = self.at("diffusion", t)
        Wp, up, dn = self._views(W)
        dxs = self.dxs

        diff = np.zeros_like(W)
        for j in range(self.d):
            diff = diff + 0.5 * A_diag[j] * (up[j] - 2.0 * W + dn[j]) / dxs[j] ** 2
        if A_cross is not None and np.any(A_cross != 0.0):
            al = A_cross
            quad = 2.0 * dxs[0] * dxs[1]
            pp, mm = Wp[2:, 2:], Wp[:-2, :-2]
            pm, mp = Wp[2:, :-2], Wp[:-2, 2:]
            ax = up[0] + dn[0] + up[1] + dn[1]
            cross_pos = (2.0 * W + pp + mm - ax) / quad
            cross_neg = (ax - pm - mp - 2.0 * W) / quad
            diff = diff + np.maximum(al, 0.0) * cross_pos + np.minimum(al, 0.0) * cross_neg

        fwd = [(up[j] - W) / dxs[j] for j in range(self.d)]
        bwd = [(dn[j] - W) / dxs[j] for j in range(self.d)]

        if self.generator == "dominating":
            acc = np.zeros_like(W)
            for j in range(self.d):
                gj = np.maximum(np.maximum(fwd[j], bwd[j]), 0.0)
                acc = acc + (sigma_diag[j] * gj) ** 2
            gen = self.phi_drift * np.sqrt(acc) + self.phi_const
            control = -1
        else:
            F, G, drift_rate = self.at("table", t)
            adv = 0.0  # [k, *shape] once the controls enter
            for j in range(self.d):
                adv = adv + np.maximum(F[j], 0.0) * fwd[j] + np.maximum(-F[j], 0.0) * bwd[j]
            best, control = first_maximiser(adv + G)
            if self.trunc is not None:
                gen = truncate_values(best, self.rho_n, self.rho_m)
            else:
                gen = best
            outflow = outflow + drift_rate

        ratio = self.dt * float(np.max(outflow))
        self.cfl_worst = max(self.cfl_worst, ratio)
        if ratio > 1.0 + 1e-9:
            raise ValueError(
                f"CFL violation: dt * outflow = {ratio:.4f} > 1 at t={t:.6g}; refine nt"
            )

        return W + self.dt * (diff + gen), control


def make_grid(
    spec: ProblemSpec,
    nx,
    nt: int | None = None,
    generator: str = "hstar",
) -> SpaceTimeGrid:
    """Build a grid on ``spec.domain``; when nt is omitted, the smallest count
    with dt times the sweep's own outflow rate at t = 0, T/2 and T at most CFL_TARGET."""
    box = spec.domain
    nx = (nx,) * box.dim if isinstance(nx, int) else tuple(nx)
    if nt is None:
        probe = _Scheme(spec, SpaceTimeGrid(box=box, nx=nx, nt=1, horizon_T=spec.horizon_T), None, generator)
        rate = max(probe.rate(t) for t in (0.0, 0.5 * spec.horizon_T, spec.horizon_T))
        nt = max(1, math.ceil(spec.horizon_T * rate / CFL_TARGET))
    return SpaceTimeGrid(box=box, nx=nx, nt=int(nt), horizon_T=spec.horizon_T)


def solve(
    spec: ProblemSpec,
    grid: SpaceTimeGrid,
    trunc: TruncationIndex | None = None,
    generator: str = "hstar",
) -> ValueField:
    """Backward sweep; terminal slice is g exactly, every slice obeys v >= h.

    The sweep also records where the obstacle binds (``ValueField.stop_mask``):
    the push v - vtilde exceeds BINDING_FLOOR * (1 + max |v|).  The push is
    h - vtilde where the obstacle binds and 0 elsewhere; the floor needs the
    whole field, so the push is thresholded once the sweep ends.  Every path
    stops on the terminal slice.  ``ValueField.control`` keeps each step's
    control; the terminal slice repeats slice nt-1.
    """
    if spec.dim != grid.dim:
        raise ValueError("grid dimension does not match the problem")
    sch = _Scheme(spec, grid, trunc, generator)
    nt = grid.nt
    times = grid.times
    values = np.empty((nt + 1, *grid.shape))
    push = np.empty((nt, *grid.shape))
    control = np.empty((nt + 1, *grid.shape), dtype=np.int16)
    values[nt] = spec.g(sch.X).reshape(grid.shape)
    for i in range(nt - 1, -1, -1):
        vt, control[i] = sch.step(values[i + 1], float(times[i + 1]))
        np.maximum(vt, sch.at("h", float(times[i])), out=values[i])
        np.subtract(values[i], vt, out=push[i])
    control[nt] = control[nt - 1]
    stop = np.ones((nt + 1, *grid.shape), dtype=bool)
    # max |v| as max(max v, -min v): no field-sized temporary
    np.greater(push, BINDING_FLOOR * (1.0 + max(float(np.max(values)), -float(np.min(values)))), out=stop[:-1])
    meta = {
        "generator": generator,
        "trunc": None if trunc is None else (trunc.n, trunc.m),
        "cfl_ratio": sch.cfl_worst,
        "upwind": "one-sided per drift sign",
        "boundary": "zero-gradient edge extension",
        "coeff_time": "source slice",
    }
    return ValueField(grid=grid, values=values, stop_mask=stop, control=control, scheme_meta=meta)


def extract_policy(spec: ProblemSpec, field: ValueField) -> ValueField:
    """The solved field itself: it answers ``control_indices`` and ``stop_at``."""
    return field


@dataclass(frozen=True)
class LadderReport:
    """Truncation-ladder outcome against the untruncated solve."""

    n_list: tuple[int, ...]
    m_list: tuple[int, ...]
    sup_gap_core: dict        # (n, m) -> sup |u_bar - u| on the interior core
    violation_n: float        # worst breach of monotone-in-n ordering
    violation_m: float        # worst breach of antitone-in-m ordering
    exhaustion_gap: float     # max |u_bar - u| at the pair covering the box, bitwise 0

    @property
    def monotone(self) -> bool:
        return self.violation_n <= 1e-10 and self.violation_m <= 1e-10


def ladder(spec: ProblemSpec, grid: SpaceTimeGrid, n_list, m_list) -> LadderReport:
    """Solve across truncation pairs and check the comparison orderings.

    Exhaustion is measured at the pair covering ``grid.box.radius``.
    """
    n_list, m_list, fields, base, cover = _ladder_runs(
        lambda trunc: solve(spec, grid, trunc=trunc).values, n_list, m_list, grid.box.radius
    )
    core = grid.core_mask()
    sup_gap = {key: float(np.max(np.abs(vals[:, core] - base[:, core]))) for key, vals in fields.items()}

    violation = {"n": 0.0, "m": 0.0}
    for axis, _, _, _, below, above in ladder_pairs(n_list, m_list):
        violation[axis] = max(violation[axis], float(np.max(fields[below] - fields[above])))

    return LadderReport(
        n_list=n_list,
        m_list=m_list,
        sup_gap_core=sup_gap,
        violation_n=violation["n"],
        violation_m=violation["m"],
        exhaustion_gap=float(np.max(np.abs(cover - base))),
    )
