"""Problem containers, builtin families, growth validation.

A problem is: controlled diffusion ``dX = f(t,X,a) dt + sigma(t,X) dB`` on
``[t0,T]``, running reward ``gamma``, terminal reward ``g``, stopping reward
``h``, control values drawn from a finite set.  The objective couples a
feedback control with a stopping time:

    maximise  E[ integral_0^tau gamma(s,X,a) ds + h(tau,X) 1{tau<T} + g(X) 1{tau=T} ].

Coefficients are vectorised callables compiled from parsed expression
trees; the trees stay beside them, so problem files round-trip exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .expr import ExpressionTree, parse_expression

__all__ = [
    "ControlSet",
    "Growth",
    "Box",
    "CoefficientField",
    "ProblemSpec",
    "ValidationCheck",
    "ValidationReport",
    "build_builtin",
    "sigma_apply",
    "validate",
    "dominating_generator_batch",
    "BUILTIN_NAMES",
]

BUILTIN_NAMES = ("bachelier_put", "controlled_drift_abs", "decaying_obstacle", "custom")

# condition-number cap for sigma(t,x); beyond this the point counts as singular
SIGMA_COND_CAP = 1e8
# the names the variables bind: time, state components and control components
_VARIABLE = re.compile(r"t|[xa][0-9]+")


@dataclass(frozen=True)
class ControlSet:
    """Finite set of admissible control values, shape [k, ka]."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("control set must be a non-empty [k, ka] array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("control values must be finite")
        if len({tuple(row) for row in pts}) != pts.shape[0]:
            raise ValueError("duplicate control points")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def k(self) -> int:
        return self.points.shape[0]

    @property
    def ka(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Growth:
    """Growth/boundedness constants the coefficients are validated against.

    |f| <= C_f (1+|x|),  |sigma^-1| <= C_sigma_inv,
    |gamma|,|g|,|h| <= C_poly (1+|x|^p).
    """

    C_f: float
    C_sigma_inv: float
    C_poly: float
    p: float

    def __post_init__(self):
        for name in ("C_f", "C_sigma_inv", "C_poly", "p"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"growth constant {name} must be finite and >= 0")
            object.__setattr__(self, name, v)
        if self.p < 1:
            raise ValueError("polynomial exponent p must be >= 1")


@dataclass(frozen=True)
class Box:
    """Axis-aligned spatial domain used by grids and regression bases."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if not np.all(lo < hi):
            raise ValueError("box must satisfy lo < hi on every axis")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def radius(self) -> float:
        """Euclidean norm of the farthest corner, the norm the truncation cutoffs measure."""
        return float(np.linalg.norm(np.maximum(np.abs(self.lo), np.abs(self.hi))))


@dataclass(frozen=True)
class CoefficientField:
    """Vectorised model coefficients plus the parsed expressions behind them.

    sigma: (t, X[n,d]) -> [n,d,d];  g: (X[n,d]) -> [n];  h: (t, X[n,d]) -> [n].

    f and gamma take a control table A[k,ka] and return one entry per
    control, f [k, n|1, d] and gamma [k, n|1]; the middle axis has length 1
    when the coefficient ignores the state.  ``t`` is a scalar or one time
    per row.  g and h may return a scalar, which ``ProblemSpec`` broadcasts.

    The ``*_expr(s)`` fields and ``params`` are required: each field holds
    the ``ExpressionTree``s the callable was compiled from, each with its
    text as ``source``.  ``reads(name)`` and ``sigma_diagonal`` are read off
    them on construction, so also by ``dataclasses.replace``.  A parameter
    may not be named t, x<j> or a<j>, the names of the variables.
    """

    sigma: Callable
    f: Callable
    gamma: Callable
    g: Callable
    h: Callable
    sigma_exprs: tuple[ExpressionTree, ...]
    f_exprs: tuple[ExpressionTree, ...]
    gamma_expr: ExpressionTree
    g_expr: ExpressionTree
    h_expr: ExpressionTree
    params: Mapping[str, float]
    # every off-diagonal sigma entry reads neither t nor x and is 0.0 under params
    sigma_diagonal: bool = field(init=False)
    _reads_of: dict = field(init=False, repr=False)

    def __post_init__(self):
        shadowed = sorted(name for name in self.params if _VARIABLE.fullmatch(name))
        if shadowed:
            raise ValueError(f"parameter names {shadowed} shadow the variables t, x<j> and a<j>")
        exprs = {"sigma": self.sigma_exprs, "f": self.f_exprs, "gamma": [self.gamma_expr], "g": [self.g_expr], "h": [self.h_expr]}
        # off-diagonal entries sit at the row-major positions not divisible by dim + 1
        sig = self.sigma_exprs
        off = [e for i, e in enumerate(sig) if i % (math.isqrt(len(sig)) + 1)]
        diagonal = all(not _reads([e]) and float(e(self.params)) == 0.0 for e in off)
        object.__setattr__(self, "_reads_of", {k: _reads(e) for k, e in exprs.items()})
        object.__setattr__(self, "sigma_diagonal", diagonal)

    def reads(self, name: str) -> frozenset[str]:
        """The subset of {"t", "x"} that the expressions of "sigma", "f", "gamma", "g" or "h" name."""
        return self._reads_of[name]


@dataclass(frozen=True)
class ProblemSpec:
    dim: int
    horizon_T: float
    coefficients: CoefficientField
    controls: ControlSet
    growth: Growth
    domain: Box
    name: str = "custom"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (self.horizon_T > 0 and math.isfinite(self.horizon_T)):
            raise ValueError("horizon T must be finite and positive")
        if self.domain.dim != self.dim:
            raise ValueError("domain dimension does not match problem dimension")

    # thin evaluation helpers normalising shapes ------------------------------

    def sigma(self, t: float, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.asarray(self.coefficients.sigma(t, X), dtype=float)
        return _shaped(out, (X.shape[0], self.dim, self.dim))

    def g(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.asarray(self.coefficients.g(X), dtype=float)
        return _shaped(out, (X.shape[0],))

    def h(self, t: float, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.asarray(self.coefficients.h(t, X), dtype=float)
        return _shaped(out, (X.shape[0],))

    def control_table(self, t, X: np.ndarray):
        """Drift [k, n|1, d] and running reward [k, n|1] for every control.

        The one evaluation of f and gamma: one call per coefficient; a
        coefficient that ignores the state keeps a single row, so callers
        can contract it with a matmul.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        k, n = self.controls.k, X.shape[0]
        F = np.asarray(self.coefficients.f(t, X, self.controls.points), dtype=float)
        G = np.asarray(self.coefficients.gamma(t, X, self.controls.points), dtype=float)
        F = np.broadcast_to(F, (k, 1 if F.ndim == 3 and F.shape[1] == 1 else n, self.dim))
        G = np.broadcast_to(G, (k, 1 if G.ndim == 2 and G.shape[1] == 1 else n))
        return F, G

    @functools.cached_property
    def _hstar_rows(self) -> np.ndarray:
        """The controls that can attain H*'s maximum, by the rule of ``hamilton``'s docstring; found on first use."""
        if self.coefficients.reads("f") | self.coefficients.reads("gamma"):
            return np.broadcast_to(np.arange(self.controls.k), (self.controls.k,))  # read-only, as shared
        F, G = (T[:, 0] for T in self.control_table(0.0, np.zeros((1, self.dim))))
        order = np.lexsort((np.arange(G.size), -G, *F.T))  # of one drift, the first with the largest reward leads
        keep = np.sort(order[np.r_[True, np.any(F[order][1:] != F[order][:-1], axis=1)]])
        F, G, drop = F[keep], G[keep], np.zeros(keep.size, dtype=bool)
        for lo in range(0, G.size**2, 2**16):  # the pairs a < b, from 2^16 ordered pairs at a time
            a, b = np.divmod(np.arange(lo, min(lo + 2**16, G.size**2)), G.size)
            a, b, code, pair = a[a < b], b[a < b], 0, 0
            for col in F.T:  # keep the pairs whose exact sum is 2 F_c on the columns so far, c by its row code
                s, ok = _exact_sum(col[a], col[b])
                u, r = np.unique(2.0 * col, return_inverse=True)
                i = np.minimum(np.searchsorted(u, s), u.size - 1)
                uc, code = np.unique(code * u.size + r, return_inverse=True)
                p = np.minimum(np.searchsorted(uc, pair * u.size + i), uc.size - 1)
                ok &= (u[i] == s) & (uc[p] == pair * u.size + i)
                a, b, pair = a[ok], b[ok], p[ok]
            c = np.argsort(code)[pair]
            s, ok = _exact_sum(G[a], G[b])
            drop[c[ok & (2.0 * G[c] <= s)]] = True
        return np.broadcast_to(keep[~drop], (np.sum(~drop),))

    def control_rows(self, t, X: np.ndarray, idx):
        """Drift [n, d] and running reward [n], row i under control points[idx[i]].

        Row i of table entry idx[i], one flat ``take`` from one ``control_table`` call;
        a part with one row per control is taken whole, one with stride 0 over the
        controls is its first entry.  For a coefficient that reads x the table costs
        k times the per-row work.  An index outside [0, k) raises ValueError.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.controls.k):
            raise ValueError(f"control indices must lie in [0, {self.controls.k})")
        # row i of entry idx[i] is row idx[i] * n + i of the table's k * n rows
        return tuple(
            np.take(T[:, 0], idx, axis=0) if T.shape[1] == 1
            else T[0] if T.strides[0] == 0
            else T.reshape(-1, *T.shape[2:]).take(idx * idx.size + np.arange(idx.size), axis=0)
            for T in self.control_table(t, X)
        )

    def sigma_solve(self, sig: np.ndarray, V: np.ndarray, *, transpose: bool = False) -> np.ndarray:
        """Rows of sigma^{-1} V (sigma^{-T} V with ``transpose``); sig [n,d,d], V [n,d].

        A diagonal sigma (``CoefficientField.sigma_diagonal``) is divided
        through, which gives gesv's bits wherever V is nonzero; any other
        sigma takes one LAPACK gesv per row.  A zero on the diagonal raises
        LinAlgError, as gesv does.
        """
        if self.coefficients.sigma_diagonal:
            diag = np.diagonal(sig, axis1=1, axis2=2)
            if np.any(diag == 0.0):
                raise np.linalg.LinAlgError("Singular matrix")
            return V / diag
        if transpose:
            sig = np.swapaxes(sig, 1, 2)
        return np.linalg.solve(sig, V[..., None])[..., 0]


def _exact_sum(x: np.ndarray, y: np.ndarray):
    """x + y and where that sum is exact: TwoSum's error term is zero (NaN on overflow)."""
    s = x + y
    v = s - x
    return s, (x - (s - v)) + (y - v) == 0.0


def _shaped(out: np.ndarray, shape: tuple) -> np.ndarray:
    """``out`` broadcast to ``shape``, read-only; a read-only view when it has that shape already.

    The result may be a view of the caller's X (``h = "x1"``), so it is never
    writable; skipping ``np.broadcast_to`` saves its per-call overhead.
    """
    if out.shape != shape:
        return np.broadcast_to(out, shape)
    out = out.view()
    out.flags.writeable = False
    return out


def sigma_apply(sig: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Rows of sigma V: out[:, i] = sum_j sig[:, i, j] * V[:, j]; sig [n|1,d,d], V [n,d].

    The sum starts from 0.0 and takes j in ascending order, so the bits do
    not depend on how a library would vectorise the contraction.
    """
    out = sig[:, :, 0] * V[:, :1]
    out += 0.0  # (p0 + 0.0) is (0.0 + p0): an all-zero row sums to +0.0
    for j in range(1, V.shape[1]):
        out += sig[:, :, j] * V[:, j, None]
    return out


# -- expression compilation ---------------------------------------------------


def _reads(trees) -> frozenset[str]:
    """The subset of {"t", "x"} that the parsed expressions name."""
    names = (v for tree in trees for v in tree.variables)
    return frozenset(v[0] for v in names if _VARIABLE.fullmatch(v)) - {"a"}


def _env(params, t=None, X=None, A=None):
    """Variable bindings; with a control table A[k,ka], a_j binds to a [k,1]
    column and x_j to a [1,n] row, so values broadcast to [k, n|1]."""
    env = dict(params or {})
    if t is not None:
        env["t"] = t
    if X is not None:
        for j in range(X.shape[1]):
            env[f"x{j + 1}"] = X[:, j] if A is None else X[None, :, j]
    if A is not None:
        for j in range(A.shape[1]):
            env[f"a{j + 1}"] = A[:, j : j + 1]
    return env


def _assemble_columns(n, values):
    """[n, len(values)] with column j set to values[j]; a constant fills its column by broadcasting.

    The transposed view of contiguous [len(values), n] rows: a strided column write costs twice as much.
    """
    out = np.empty((len(values), n))
    for j, val in enumerate(values):
        out[j] = val
    return out.T


def compile_coefficients(
    dim: int,
    sigma_exprs: tuple[str, ...],
    f_exprs: tuple[str, ...],
    gamma_expr: str,
    g_expr: str,
    h_expr: str,
    params: Mapping[str, float],
    ka: int,
) -> CoefficientField:
    """Build a CoefficientField whose callables walk parsed expression trees."""
    if len(sigma_exprs) != dim * dim:
        raise ValueError(f"sigma needs {dim * dim} expressions (row-major), got {len(sigma_exprs)}")
    if len(f_exprs) != dim:
        raise ValueError(f"f needs {dim} expressions, got {len(f_exprs)}")

    pnames = set(params)
    xnames = {f"x{j + 1}" for j in range(dim)}
    anames = {f"a{j + 1}" for j in range(ka)}

    sig_trees = [parse_expression(s, pnames | xnames | {"t"}) for s in sigma_exprs]
    f_trees = [parse_expression(s, pnames | xnames | anames | {"t"}) for s in f_exprs]
    gamma_tree = parse_expression(gamma_expr, pnames | xnames | anames | {"t"})
    g_tree = parse_expression(g_expr, pnames | xnames)
    h_tree = parse_expression(h_expr, pnames | xnames | {"t"})

    if not _reads(sig_trees):
        const = np.array([tr(dict(params)) for tr in sig_trees], dtype=float).reshape(dim, dim)
        const.setflags(write=False)

        def sigma_fn(t, X):
            return np.broadcast_to(const, (X.shape[0], dim, dim))

    else:

        def sigma_fn(t, X):
            n = X.shape[0]
            env = _env(params, t=t, X=X)
            return _assemble_columns(n, [tr(env) for tr in sig_trees]).reshape(n, dim, dim)

    def f_fn(t, X, A):
        env = _env(params, t=t, X=X, A=A)
        comps = [tr(env) for tr in f_trees]
        shape = np.broadcast_shapes((A.shape[0], 1), *(np.shape(c) for c in comps))
        return np.stack([np.broadcast_to(c, shape) for c in comps], axis=-1)

    def gamma_fn(t, X, A):
        val = gamma_tree(_env(params, t=t, X=X, A=A))
        return np.broadcast_to(val, np.broadcast_shapes((A.shape[0], 1), np.shape(val)))

    def g_fn(X):
        return g_tree(_env(params, X=X))

    def h_fn(t, X):
        return h_tree(_env(params, t=t, X=X))

    return CoefficientField(
        sigma=sigma_fn,
        f=f_fn,
        gamma=gamma_fn,
        g=g_fn,
        h=h_fn,
        sigma_exprs=tuple(sig_trees),
        f_exprs=tuple(f_trees),
        gamma_expr=gamma_tree,
        g_expr=g_tree,
        h_expr=h_tree,
        params=dict(params),
    )


# -- builtin families ---------------------------------------------------------


def _pop_params(params: dict, defaults: dict, family: str) -> dict:
    out = dict(defaults)
    for key, val in params.items():
        if key not in defaults:
            raise ValueError(f"unknown parameter {key!r} for builtin {family!r}")
        out[key] = val
    return out


def _put_family(name: str, params: dict) -> dict:
    """Custom parameters of bachelier_put, or of decaying_obstacle: the same
    with the obstacle scaled by (1+beta(T-t)) and C_poly scaled to match."""
    decaying = name == "decaying_obstacle"
    defaults = {"sigma0": 0.2, "K": 1.0, "T": 1.0, "lo": -3.0, "hi": 5.0}
    p = _pop_params(
        params,
        {"beta": 0.5, **defaults} if decaying else defaults,
        name,
    )
    if p["sigma0"] <= 0:
        raise ValueError("sigma0 must be positive")
    bind = {"sigma0": float(p["sigma0"]), "K": float(p["K"])}
    h_expr = "max(K-x1,0)"
    C_poly = max(1.0, float(p["K"]))
    if decaying:
        if p["beta"] < 0:
            raise ValueError("beta must be >= 0")
        bind.update(beta=float(p["beta"]), T=float(p["T"]))
        h_expr += "*(1+beta*(T-t))"
        C_poly *= 1.0 + float(p["beta"]) * float(p["T"])
    return {
        "name": name,
        "dim": 1,
        "T": p["T"],
        "sigma": ("sigma0",),
        "f": ("0",),
        "gamma": "0",
        "g": "max(K-x1,0)",
        "h": h_expr,
        "controls": [[0.0]],
        "growth": {"C_f": 0.0, "C_sigma_inv": 1.0 / bind["sigma0"], "C_poly": C_poly, "p": 1.0},
        "lo": p["lo"],
        "hi": p["hi"],
        "params": bind,
    }


def build_builtin(name: str, params: Mapping[str, float] | None = None) -> ProblemSpec:
    """Construct one of the builtin problem families.

    bachelier_put       zero-drift scalar diffusion, put payoff, obstacle = payoff
    controlled_drift_abs unit diffusion, drift chosen from {-kappa,0,kappa}^d,
                        terminal |x|, constant obstacle floor
    decaying_obstacle   bachelier_put with obstacle inflated by (1+beta(T-t))
    custom              explicit expression strings and constants

    A named family checks its parameters and becomes a ``custom`` parameter
    dict, so every spec is assembled by the ``custom`` path.
    """
    params = dict(params or {})
    if name in ("bachelier_put", "decaying_obstacle"):
        params = _put_family(name, params)
    elif name == "controlled_drift_abs":
        p = _pop_params(
            params,
            {"kappa": 1.0, "d": 1, "h_floor": -10.0, "T": 1.0, "lo": -4.0, "hi": 4.0},
            name,
        )
        d = int(p["d"])
        if d < 1:
            raise ValueError("d must be >= 1")
        kappa = float(p["kappa"])
        if kappa <= 0:
            raise ValueError("kappa must be positive")
        h_floor = float(p["h_floor"])
        if d == 1:
            g_expr = "abs(x1)"
        else:
            g_expr = "sqrt(" + "+".join(f"x{j + 1}*x{j + 1}" for j in range(d)) + ")"
        params = {
            "name": name,
            "dim": d,
            "T": p["T"],
            "sigma": tuple("1" if i == j else "0" for i in range(d) for j in range(d)),
            "f": tuple(f"a{j + 1}" for j in range(d)),
            "gamma": "0",
            "g": g_expr,
            "h": "h_floor",
            "controls": list(itertools.product((-kappa, 0.0, kappa), repeat=d)),
            "growth": {"C_f": kappa * math.sqrt(d), "C_sigma_inv": 1.0, "C_poly": max(1.0, abs(h_floor)), "p": 1.0},
            "lo": p["lo"],
            "hi": p["hi"],
            "params": {"h_floor": h_floor},
        }
    elif name != "custom":
        raise ValueError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")

    required = {"dim", "T", "sigma", "f", "gamma", "g", "h", "controls", "growth", "lo", "hi"}
    missing = required - set(params)
    if missing:
        raise ValueError(f"custom spec missing parameters: {sorted(missing)}")
    dim = int(params["dim"])
    controls = ControlSet(np.asarray(params["controls"], dtype=float))
    bind = dict(params.get("params", {}))
    coeffs = compile_coefficients(
        dim=dim,
        sigma_exprs=tuple(params["sigma"]),
        f_exprs=tuple(params["f"]),
        gamma_expr=params["gamma"],
        g_expr=params["g"],
        h_expr=params["h"],
        params=bind,
        ka=controls.ka,
    )
    gr = params["growth"]
    growth = gr if isinstance(gr, Growth) else Growth(**gr)

    def bound(key):
        """Box bound ``key``: one value for every axis or one per axis."""
        b = np.atleast_1d(np.asarray(params[key], dtype=float))
        if b.size == 1:
            return np.full(dim, b[0])
        if b.shape != (dim,):
            raise ValueError(f"custom spec {key} needs 1 or {dim} entries, got shape {b.shape}")
        return b

    return ProblemSpec(
        dim=dim,
        horizon_T=float(params["T"]),
        coefficients=coeffs,
        controls=controls,
        growth=growth,
        domain=Box(bound("lo"), bound("hi")),
        name=str(params.get("name", "custom")),
    )


# -- dominating generator -----------------------------------------------------


def dominating_constant(spec: ProblemSpec) -> float:
    g = spec.growth
    return max(g.C_f * g.C_sigma_inv, g.C_poly)


def dominating_weights(spec: ProblemSpec, X: np.ndarray):
    """(c (1+|x|), c (1+|x|^p)) per row of X, the two weights of phi."""
    c = dominating_constant(spec)
    xn = np.linalg.norm(X, axis=1)
    return c * (1.0 + xn), c * (1.0 + xn ** spec.growth.p)


def dominating_generator_batch(spec: ProblemSpec, t: float, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """phi(t,x,z) = c (1+|x|) |z| + c (1+|x|^p) per row, c = max(C_f*C_sigma_inv, C_poly).

    Dominates |H*| for every spec passing validation.
    """
    drift_w, const_w = dominating_weights(spec, X)
    return drift_w * np.linalg.norm(Z, axis=1) + const_w


# -- validation ----------------------------------------------------------------


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    measured: float
    bound: float
    worst_point: tuple

    def render(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        return f"[{status}] {self.name}: measured {self.measured:.6g} vs bound {self.bound:.6g} at {self.worst_point}"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]
    samples: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"validation over {self.samples} samples (seed {self.seed})"]
        lines += [c.render() for c in self.checks]
        return "\n".join(lines)

    def failing(self) -> tuple[ValidationCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _halton(samples: int, dims: int, seed: int) -> np.ndarray:
    """Halton points in the first ``dims`` primes, shifted by a seeded random
    offset modulo 1 (a Cranley-Patterson rotation); shape [samples, dims]."""
    primes, p = [], 2
    while len(primes) < dims:
        if all(p % q for q in primes):
            primes.append(p)
        p += 1
    u = np.zeros((samples, dims))
    for j, base in enumerate(primes):
        idx = np.arange(1, samples + 1)
        scale = 1.0
        while np.any(idx):
            scale /= base
            u[:, j] += scale * (idx % base)
            idx //= base
    return (u + np.random.default_rng(seed).random(dims)) % 1.0


def _sample_points(spec: ProblemSpec, samples: int, seed: int):
    """Deterministic low-discrepancy (t, x, control-index) triples."""
    u = _halton(samples, spec.dim + 2, seed)
    ts = u[:, 0] * spec.horizon_T
    lo, hi = spec.domain.lo, spec.domain.hi
    xs = lo[None, :] + u[:, 1 : 1 + spec.dim] * (hi - lo)[None, :]
    ks = np.minimum((u[:, -1] * spec.controls.k).astype(int), spec.controls.k - 1)
    return ts, xs, ks


def validate(spec: ProblemSpec, samples: int = 4096, seed: int = 0) -> ValidationReport:
    """Check the growth conditions on quasi-random samples.

    Non-finite coefficient values at a sample turn into a failing check rather
    than an exception.  The report is deterministic in (spec, samples, seed)
    regardless of how the sampling is scheduled.
    """
    ts, xs, ks = _sample_points(spec, samples, seed)
    gr = spec.growth
    slack = 1e-9  # absorbs round-off when a family meets its bound with equality

    checks = []

    def run_check(name, fn):
        try:
            measured, bound, worst = fn()
            ok = bool(measured <= bound * (1.0 + slack) + 1e-12)
            if not math.isfinite(measured):
                ok = False
            checks.append(ValidationCheck(name, ok, float(measured), float(bound), worst))
        except Exception as exc:  # non-finite or domain failure counts as a fail
            checks.append(ValidationCheck(name, False, float("nan"), float("nan"), (str(exc),)))

    xnorm = np.linalg.norm(xs, axis=1)

    def sigma_check():
        sig = spec.sigma(ts, xs)
        if not np.all(np.isfinite(sig)):
            return np.inf, gr.C_sigma_inv, ("non-finite sigma",)
        inv_norms = np.linalg.norm(np.linalg.inv(sig), ord=2, axis=(1, 2))
        j = int(np.argmax(inv_norms))
        return float(inv_norms[j]), gr.C_sigma_inv, (float(ts[j]), *xs[j])

    def sigma_cond_check():
        conds = np.linalg.cond(spec.sigma(ts, xs))
        j = int(np.argmax(conds))
        return float(conds[j]), SIGMA_COND_CAP, (float(ts[j]), *xs[j])

    def f_check():
        fv, _ = spec.control_rows(ts, xs, ks)
        if not np.all(np.isfinite(fv)):
            return np.inf, gr.C_f, ("non-finite f",)
        ratios = np.linalg.norm(fv, axis=1) / (1.0 + xnorm)
        # ties go to the lowest control index, then to the first sample
        top = np.flatnonzero(ratios == np.max(ratios))
        j = int(top[np.argmin(ks[top])])
        return float(ratios[j]), gr.C_f, (float(ts[j]), *xs[j], int(ks[j]))

    def scalar_growth_check(values, tag_points):
        denom = 1.0 + xnorm**gr.p
        ratios = np.abs(values) / denom
        j = int(np.argmax(ratios))
        return float(ratios[j]), gr.C_poly, tag_points(j)

    def gamma_check():
        _, vals = spec.control_rows(ts, xs, ks)
        if not np.all(np.isfinite(vals)):
            return np.inf, gr.C_poly, ("non-finite gamma",)
        return scalar_growth_check(vals, lambda j: (float(ts[j]), *xs[j], int(ks[j])))

    def g_check():
        vals = spec.g(xs)
        if not np.all(np.isfinite(vals)):
            return np.inf, gr.C_poly, ("non-finite g",)
        return scalar_growth_check(vals, lambda j: tuple(xs[j]))

    def h_check():
        vals = spec.h(ts, xs)
        if not np.all(np.isfinite(vals)):
            return np.inf, gr.C_poly, ("non-finite h",)
        return scalar_growth_check(vals, lambda j: (float(ts[j]), *xs[j]))

    def terminal_check():
        hT = spec.h(spec.horizon_T, xs)
        gv = spec.g(xs)
        gap = hT - gv
        j = int(np.argmax(gap))
        # measured: worst excess of h(T,.) over g; bound 0
        return float(gap[j]), 0.0, tuple(xs[j])

    run_check("sigma_inverse_bound", sigma_check)
    run_check("sigma_condition_cap", sigma_cond_check)
    run_check("f_linear_growth", f_check)
    run_check("gamma_poly_growth", gamma_check)
    run_check("g_poly_growth", g_check)
    run_check("h_poly_growth", h_check)
    run_check("terminal_barrier", terminal_check)

    return ValidationReport(tuple(checks), samples, seed)
