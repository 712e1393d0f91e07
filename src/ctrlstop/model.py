"""Problem containers, builtin families, growth validation.

A problem is: controlled diffusion ``dX = f(t,X,a) dt + sigma(t,X) dB`` on
``[t0,T]``, running reward ``gamma``, terminal reward ``g``, stopping reward
``h``, control values drawn from a finite set.  The objective couples a
feedback control with a stopping time:

    maximise  E[ integral_0^tau gamma(s,X,a) ds + h(tau,X) 1{tau<T} + g(X) 1{tau=T} ].

Coefficients are vectorised callables; builtins are backed by parsed
expression trees so that problem files round-trip exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .expr import parse_expression

__all__ = [
    "ControlSet",
    "Growth",
    "Box",
    "CoefficientField",
    "ProblemSpec",
    "ValidationCheck",
    "ValidationReport",
    "build_builtin",
    "validate",
    "dominating_generator",
    "BUILTIN_NAMES",
]

BUILTIN_NAMES = ("bachelier_put", "controlled_drift_abs", "decaying_obstacle", "custom")

# condition-number cap for sigma(t,x); beyond this the point counts as singular
SIGMA_COND_CAP = 1e8


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

    def index_of(self, a) -> int:
        a = np.atleast_1d(np.asarray(a, dtype=float))
        hits = np.where(np.all(self.points == a[None, :], axis=1))[0]
        if hits.size == 0:
            raise ValueError(f"control {a!r} is not in the control set")
        return int(hits[0])


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
        return float(max(np.max(np.abs(self.lo)), np.max(np.abs(self.hi))))


@dataclass(frozen=True)
class CoefficientField:
    """Vectorised model coefficients plus optional expression metadata.

    sigma: (t, X[n,d]) -> [n,d,d];  f: (t, X[n,d], a[ka]) -> [n,d];
    gamma: (t, X[n,d], a[ka]) -> [n];  g: (X[n,d]) -> [n];  h: (t, X[n,d]) -> [n].

    Given the whole control set a[k,ka] instead of one control, f returns
    [k, n|1, d] and gamma [k, n|1]; the middle axis has length 1 when the
    coefficient ignores the state.  ``t`` is a scalar or one time per row.
    """

    sigma: Callable
    f: Callable
    gamma: Callable
    g: Callable
    h: Callable
    sigma_exprs: tuple[str, ...] | None = None
    f_exprs: tuple[str, ...] | None = None
    gamma_expr: str | None = None
    g_expr: str | None = None
    h_expr: str | None = None
    params: Mapping[str, float] | None = None
    sigma_constant: bool = False
    # hoisting hints: true when the coefficient provably ignores t
    f_t_free: bool = False
    gamma_t_free: bool = False
    h_t_free: bool = False


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
        return np.broadcast_to(out, (X.shape[0], self.dim, self.dim))

    def f(self, t: float, X: np.ndarray, a) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        a = np.atleast_1d(np.asarray(a, dtype=float))
        out = np.asarray(self.coefficients.f(t, X, a), dtype=float)
        return np.broadcast_to(out, (X.shape[0], self.dim))

    def gamma(self, t: float, X: np.ndarray, a) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        a = np.atleast_1d(np.asarray(a, dtype=float))
        out = np.asarray(self.coefficients.gamma(t, X, a), dtype=float)
        return np.broadcast_to(out, (X.shape[0],))

    def g(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.asarray(self.coefficients.g(X), dtype=float)
        return np.broadcast_to(out, (X.shape[0],))

    def h(self, t: float, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.asarray(self.coefficients.h(t, X), dtype=float)
        return np.broadcast_to(out, (X.shape[0],))

    def control_table(self, t, X: np.ndarray):
        """Drift [k, n|1, d] and running reward [k, n|1] for every control.

        One call per coefficient; a coefficient that ignores the state keeps
        a single row, so callers can contract it with a matmul.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        k, n = self.controls.k, X.shape[0]
        F = np.asarray(self.coefficients.f(t, X, self.controls.points), dtype=float)
        G = np.asarray(self.coefficients.gamma(t, X, self.controls.points), dtype=float)
        F = np.broadcast_to(F, (k, 1 if F.ndim == 3 and F.shape[1] == 1 else n, self.dim))
        G = np.broadcast_to(G, (k, 1 if G.ndim == 2 and G.shape[1] == 1 else n))
        return F, G


# -- expression compilation ---------------------------------------------------


def _env(params, t=None, X=None, a=None):
    """Variable bindings; a control table a[k,ka] binds a_j to a [k,1] column
    and x_j to a [1,n] row, so values broadcast to [k, n|1]."""
    env = dict(params or {})
    table = a is not None and a.ndim == 2
    if t is not None:
        env["t"] = t
    if X is not None:
        for j in range(X.shape[1]):
            env[f"x{j + 1}"] = X[None, :, j] if table else X[:, j]
    if a is not None:
        for j in range(a.shape[-1]):
            env[f"a{j + 1}"] = a[:, j : j + 1] if table else a[j]
    return env


def _broadcast_scalar(val, n):
    arr = np.asarray(val, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    return arr


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

    sigma_constant = all(tr.variables <= pnames for tr in sig_trees)
    if sigma_constant:
        const = np.array([tr(dict(params)) for tr in sig_trees], dtype=float).reshape(dim, dim)
        const.setflags(write=False)

        def sigma_fn(t, X):
            return np.broadcast_to(const, (X.shape[0], dim, dim))

    else:

        def sigma_fn(t, X):
            n = X.shape[0]
            env = _env(params, t=t, X=X)
            cols = [_broadcast_scalar(tr(env), n) for tr in sig_trees]
            return np.stack(cols, axis=1).reshape(n, dim, dim)

    def f_fn(t, X, a):
        env = _env(params, t=t, X=X, a=a)
        comps = [tr(env) for tr in f_trees]
        if a.ndim == 2:
            shape = np.broadcast_shapes((a.shape[0], 1), *(np.shape(c) for c in comps))
            return np.stack([np.broadcast_to(c, shape) for c in comps], axis=-1)
        return np.stack([_broadcast_scalar(c, X.shape[0]) for c in comps], axis=1)

    def gamma_fn(t, X, a):
        val = gamma_tree(_env(params, t=t, X=X, a=a))
        if a.ndim == 2:
            return np.broadcast_to(val, np.broadcast_shapes((a.shape[0], 1), np.shape(val)))
        return _broadcast_scalar(val, X.shape[0])

    def g_fn(X):
        return _broadcast_scalar(g_tree(_env(params, X=X)), X.shape[0])

    def h_fn(t, X):
        return _broadcast_scalar(h_tree(_env(params, t=t, X=X)), X.shape[0])

    return CoefficientField(
        sigma=sigma_fn,
        f=f_fn,
        gamma=gamma_fn,
        g=g_fn,
        h=h_fn,
        sigma_exprs=tuple(sigma_exprs),
        f_exprs=tuple(f_exprs),
        gamma_expr=gamma_expr,
        g_expr=g_expr,
        h_expr=h_expr,
        params=dict(params),
        sigma_constant=sigma_constant,
        f_t_free=all("t" not in tr.variables for tr in f_trees),
        gamma_t_free="t" not in gamma_tree.variables,
        h_t_free="t" not in h_tree.variables,
    )


# -- builtin families ---------------------------------------------------------


def _pop_params(params: dict, defaults: dict, family: str) -> dict:
    out = dict(defaults)
    for key, val in params.items():
        if key not in defaults:
            raise ValueError(f"unknown parameter {key!r} for builtin {family!r}")
        out[key] = val
    return out


def _axis_grid(values, d):
    """Cartesian power of a 1-d value list, rows ordered lexicographically."""
    grids = np.meshgrid(*([np.asarray(values, dtype=float)] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def build_builtin(name: str, params: Mapping[str, float] | None = None) -> ProblemSpec:
    """Construct one of the builtin problem families.

    bachelier_put       zero-drift scalar diffusion, put payoff, obstacle = payoff
    controlled_drift_abs unit diffusion, drift chosen from {-kappa,0,kappa}^d,
                        terminal |x|, constant obstacle floor
    decaying_obstacle   bachelier_put with obstacle inflated by (1+beta(T-t))
    custom              explicit expression strings and constants
    """
    params = dict(params or {})
    if name == "bachelier_put":
        p = _pop_params(
            params,
            {"sigma0": 0.2, "K": 1.0, "T": 1.0, "lo": -3.0, "hi": 5.0},
            name,
        )
        if p["sigma0"] <= 0:
            raise ValueError("sigma0 must be positive")
        bind = {"sigma0": float(p["sigma0"]), "K": float(p["K"])}
        coeffs = compile_coefficients(
            dim=1,
            sigma_exprs=("sigma0",),
            f_exprs=("0",),
            gamma_expr="0",
            g_expr="max(K-x1,0)",
            h_expr="max(K-x1,0)",
            params=bind,
            ka=1,
        )
        growth = Growth(
            C_f=0.0,
            C_sigma_inv=1.0 / float(p["sigma0"]),
            C_poly=max(1.0, float(p["K"])),
            p=1.0,
        )
        return ProblemSpec(
            dim=1,
            horizon_T=float(p["T"]),
            coefficients=coeffs,
            controls=ControlSet(np.array([[0.0]])),
            growth=growth,
            domain=Box(np.array([p["lo"]]), np.array([p["hi"]])),
            name=name,
        )

    if name == "controlled_drift_abs":
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
        bind = {"h_floor": float(p["h_floor"])}
        if d == 1:
            g_expr = "abs(x1)"
        else:
            g_expr = "sqrt(" + "+".join(f"x{j + 1}*x{j + 1}" for j in range(d)) + ")"
        sigma_exprs = tuple("1" if i == j else "0" for i in range(d) for j in range(d))
        coeffs = compile_coefficients(
            dim=d,
            sigma_exprs=sigma_exprs,
            f_exprs=tuple(f"a{j + 1}" for j in range(d)),
            gamma_expr="0",
            g_expr=g_expr,
            h_expr="h_floor",
            params=bind,
            ka=d,
        )
        growth = Growth(
            C_f=kappa * math.sqrt(d),
            C_sigma_inv=1.0,
            C_poly=max(1.0, abs(float(p["h_floor"]))),
            p=1.0,
        )
        return ProblemSpec(
            dim=d,
            horizon_T=float(p["T"]),
            coefficients=coeffs,
            controls=ControlSet(_axis_grid([-kappa, 0.0, kappa], d)),
            growth=growth,
            domain=Box(np.full(d, float(p["lo"])), np.full(d, float(p["hi"]))),
            name=name,
        )

    if name == "decaying_obstacle":
        p = _pop_params(
            params,
            {"beta": 0.5, "sigma0": 0.2, "K": 1.0, "T": 1.0, "lo": -3.0, "hi": 5.0},
            name,
        )
        if p["sigma0"] <= 0:
            raise ValueError("sigma0 must be positive")
        if p["beta"] < 0:
            raise ValueError("beta must be >= 0")
        bind = {
            "sigma0": float(p["sigma0"]),
            "K": float(p["K"]),
            "beta": float(p["beta"]),
            "T": float(p["T"]),
        }
        coeffs = compile_coefficients(
            dim=1,
            sigma_exprs=("sigma0",),
            f_exprs=("0",),
            gamma_expr="0",
            g_expr="max(K-x1,0)",
            h_expr="max(K-x1,0)*(1+beta*(T-t))",
            params=bind,
            ka=1,
        )
        growth = Growth(
            C_f=0.0,
            C_sigma_inv=1.0 / float(p["sigma0"]),
            C_poly=max(1.0, float(p["K"])) * (1.0 + float(p["beta"]) * float(p["T"])),
            p=1.0,
        )
        return ProblemSpec(
            dim=1,
            horizon_T=float(p["T"]),
            coefficients=coeffs,
            controls=ControlSet(np.array([[0.0]])),
            growth=growth,
            domain=Box(np.array([p["lo"]]), np.array([p["hi"]])),
            name=name,
        )

    if name == "custom":
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
        lo = np.atleast_1d(np.asarray(params["lo"], dtype=float))
        hi = np.atleast_1d(np.asarray(params["hi"], dtype=float))
        if lo.size == 1 and dim > 1:
            lo = np.full(dim, lo[0])
            hi = np.full(dim, hi[0])
        return ProblemSpec(
            dim=dim,
            horizon_T=float(params["T"]),
            coefficients=coeffs,
            controls=controls,
            growth=growth,
            domain=Box(lo, hi),
            name=str(params.get("name", "custom")),
        )

    raise ValueError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")


# -- dominating generator -----------------------------------------------------


def dominating_constant(spec: ProblemSpec) -> float:
    g = spec.growth
    return max(g.C_f * g.C_sigma_inv, g.C_poly)


def dominating_generator(spec: ProblemSpec, t: float, x, z) -> float:
    """phi(t,x,z) = c (1+|x|) |z| + c (1+|x|^p) with c = max(C_f*C_sigma_inv, C_poly).

    Dominates |H*| for every spec passing validation.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    c = dominating_constant(spec)
    xn = float(np.linalg.norm(x))
    zn = float(np.linalg.norm(z))
    return c * (1.0 + xn) * zn + c * (1.0 + xn ** spec.growth.p)


def dominating_generator_batch(spec: ProblemSpec, t: float, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    c = dominating_constant(spec)
    xn = np.linalg.norm(X, axis=1)
    zn = np.linalg.norm(Z, axis=1)
    return c * (1.0 + xn) * zn + c * (1.0 + xn ** spec.growth.p)


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


def _eval_timewise(fn, ts, xs, extra=None):
    """Evaluate coefficient over per-sample times; vectorised when supported."""
    try:
        out = fn(ts, xs) if extra is None else fn(ts, xs, extra)
        out = np.asarray(out, dtype=float)
        if out.shape[0] == xs.shape[0]:
            return out
    except Exception:
        pass
    rows = []
    for i in range(xs.shape[0]):
        if extra is None:
            rows.append(fn(float(ts[i]), xs[i : i + 1])[0])
        else:
            rows.append(fn(float(ts[i]), xs[i : i + 1], extra)[0])
    return np.asarray(rows, dtype=float)


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

    def _sigma_all():
        if spec.coefficients.sigma_constant:
            return spec.sigma(float(ts[0]), xs)
        sig = _eval_timewise(spec.sigma, ts, xs)
        return sig.reshape(samples, spec.dim, spec.dim)

    def sigma_check():
        sig = _sigma_all()
        if not np.all(np.isfinite(sig)):
            return np.inf, gr.C_sigma_inv, ("non-finite sigma",)
        inv_norms = np.linalg.norm(np.linalg.inv(sig), ord=2, axis=(1, 2))
        j = int(np.argmax(inv_norms))
        return float(inv_norms[j]), gr.C_sigma_inv, (float(ts[j]), *xs[j])

    def sigma_cond_check():
        sig = _sigma_all()
        conds = np.linalg.cond(sig)
        j = int(np.argmax(conds))
        return float(conds[j]), SIGMA_COND_CAP, (float(ts[j]), *xs[j])

    def f_check():
        measured, worst = -np.inf, (0.0,)
        for k in range(spec.controls.k):
            sel = ks == k
            if not np.any(sel):
                continue
            fv = _eval_timewise(spec.f, ts[sel], xs[sel], spec.controls.points[k])
            fv = fv.reshape(-1, spec.dim)
            ratios = np.linalg.norm(fv, axis=1) / (1.0 + xnorm[sel])
            j = int(np.argmax(ratios))
            if ratios[j] > measured:
                measured = float(ratios[j])
                idx = np.where(sel)[0][j]
                worst = (float(ts[idx]), *xs[idx], k)
        return measured, gr.C_f, worst

    def scalar_growth_check(values, tag_points):
        denom = 1.0 + xnorm**gr.p
        ratios = np.abs(values) / denom
        j = int(np.argmax(ratios))
        return float(ratios[j]), gr.C_poly, tag_points(j)

    def gamma_check():
        vals = np.empty(samples)
        for k in range(spec.controls.k):
            sel = ks == k
            if np.any(sel):
                vals[sel] = _eval_timewise(spec.gamma, ts[sel], xs[sel], spec.controls.points[k])
        if not np.all(np.isfinite(vals)):
            return np.inf, gr.C_poly, ("non-finite gamma",)
        return scalar_growth_check(vals, lambda j: (float(ts[j]), *xs[j], int(ks[j])))

    def g_check():
        vals = spec.g(xs)
        if not np.all(np.isfinite(vals)):
            return np.inf, gr.C_poly, ("non-finite g",)
        return scalar_growth_check(vals, lambda j: tuple(xs[j]))

    def h_check():
        vals = _eval_timewise(spec.h, ts, xs)
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
