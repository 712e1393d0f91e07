"""Hamiltonian of the control problem and its truncations.

With z a row vector, H(t,x,z,a) = z . sigma(t,x)^-1 f(t,x,a) + gamma(t,x,a)
and H*(t,x,z) = max over the finite control set.  The two-sided truncation
damps the positive part beyond radius n and the negative part beyond radius m:

    Hbar^{n,m} = H*^+ rho_n(x) - H*^- rho_m(x),
    rho_m(x)   = clip(m + 1 - |x|, 0, 1).

The unit direction ell(z) satisfies ell(z) . z = |z| and |ell_i| <= 1; it is
the measure-change direction used when a bounded generator is linearised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ProblemSpec

__all__ = [
    "HamiltonianValue",
    "TruncationIndex",
    "hamiltonian",
    "sup_hamiltonian",
    "sup_hamiltonian_batch",
    "cutoff",
    "cutoff_batch",
    "truncated_sup_hamiltonian",
    "truncate_values",
    "unit_direction",
    "unit_direction_batch",
    "tail_norms",
    "TIE_TOL",
]

# relative tolerance under which two control values count as tied
TIE_TOL = 1e-12


@dataclass(frozen=True)
class HamiltonianValue:
    value: float
    argmax: np.ndarray  # first maximiser in control-set order
    argmax_index: int
    ties: int           # how many controls achieve the max within TIE_TOL


@dataclass(frozen=True)
class TruncationIndex:
    n: int  # radius beyond which the positive part is cut
    m: int  # radius beyond which the negative part is cut

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("truncation radii must be >= 1")


def _control_values(spec: ProblemSpec, t, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """H(t, x_i, z_i, a_k) for every control and row, shape [k, n].

    z . sigma^{-1} f is evaluated as W . f with W = sigma^{-T} z, so sigma is
    factorised once per call (once in all when it is constant) and the
    control set enters through one drift and one reward evaluation.  With a
    state-free drift the contraction is a [k,d] @ [d,n] matmul.
    """
    sig = spec.sigma(t, X)
    if spec.coefficients.sigma_constant and X.shape[0]:
        W = np.linalg.solve(sig[0].T, Z.T)                                   # [d, n]
    else:
        W = np.linalg.solve(np.swapaxes(sig, 1, 2), Z[..., None])[..., 0].T  # [d, n]
    F, G = spec.control_table(t, X)
    if F.shape[1] == 1:
        vals = F[:, 0, :] @ W
    else:
        vals = np.einsum("knd,dn->kn", F, W)
    vals += G
    return vals


def _first_maximiser(vals: np.ndarray):
    """Column-wise max of [k, n] values and the first index within TIE_TOL of it."""
    best = np.max(vals, axis=0)
    tol = TIE_TOL * np.maximum(1.0, np.abs(best))
    near = vals >= best - tol
    return best, np.argmax(near, axis=0), near


def _one_row(x, z):
    X = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    Z = np.atleast_1d(np.asarray(z, dtype=float))[None, :]
    return X, Z


def hamiltonian(spec: ProblemSpec, t: float, x, z, a) -> float:
    """H(t,x,z,a) for a single point; ``a`` must belong to the control set."""
    k = spec.controls.index_of(a)  # membership check
    X, Z = _one_row(x, z)
    cond = np.linalg.cond(spec.sigma(t, X)[0])
    if not np.isfinite(cond) or cond > 1e8:
        raise ValueError(f"sigma is singular at (t={t}, x={X[0]}) (cond={cond:.3g})")
    return float(_control_values(spec, t, X, Z)[k, 0])


def sup_hamiltonian(spec: ProblemSpec, t: float, x, z) -> HamiltonianValue:
    """H*(t,x,z): maximum of H over the control set, first maximiser kept."""
    X, Z = _one_row(x, z)
    best, arg, near = _first_maximiser(_control_values(spec, t, X, Z))
    first = int(arg[0])
    return HamiltonianValue(
        value=float(best[0]),
        argmax=spec.controls.points[first].copy(),
        argmax_index=first,
        ties=int(np.sum(near)),
    )


def sup_hamiltonian_batch(spec: ProblemSpec, t, X: np.ndarray, Z: np.ndarray):
    """Vectorised H* over rows of (X, Z); ``t`` is a scalar or one time per row.

    Returns (values [n], argmax indices [n]); the argmax is the first
    maximiser in control-set enumeration order.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    best, arg, _ = _first_maximiser(_control_values(spec, t, X, Z))
    return best, arg


def cutoff(m: float, x) -> float:
    """rho_m(x) = clip(m + 1 - |x|, 0, 1); equals 1 for |x| <= m, 0 beyond m+1."""
    if m < 1:
        raise ValueError("cutoff level must be >= 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(np.clip(m + 1.0 - np.linalg.norm(x), 0.0, 1.0))


def cutoff_batch(m: float, X: np.ndarray) -> np.ndarray:
    if m < 1:
        raise ValueError("cutoff level must be >= 1")
    return np.clip(m + 1.0 - np.linalg.norm(np.atleast_2d(X), axis=1), 0.0, 1.0)


def truncate_values(values: np.ndarray, rho_n: np.ndarray, rho_m: np.ndarray) -> np.ndarray:
    """Apply the two-sided damping to raw H* values (vectorised)."""
    pos = np.maximum(values, 0.0)
    neg = np.maximum(-values, 0.0)
    return pos * rho_n - neg * rho_m


def truncated_sup_hamiltonian(spec: ProblemSpec, trunc: TruncationIndex, t: float, x, z) -> float:
    """Hbar^{n,m}(t,x,z); equals H* wherever |x| <= min(n, m)."""
    hv = sup_hamiltonian(spec, t, x, z).value
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rn = cutoff(trunc.n, x)
    rm = cutoff(trunc.m, x)
    return float(max(hv, 0.0) * rn - max(-hv, 0.0) * rm)


def unit_direction(z) -> np.ndarray:
    """Direction ell(z) with ell(z) . z = |z| componentwise-bounded by 1.

    ell_i = (|z_{i:}| - |z_{i+1:}|) / z_i when z_i != 0 and 0 otherwise,
    with |.| the Euclidean norm of the trailing subvector; the last component
    degenerates to sign(z_d).
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    d = z.size
    tails = np.zeros(d + 1)
    for i in range(d - 1, -1, -1):
        tails[i] = np.hypot(z[i], tails[i + 1])
    ell = np.zeros(d)
    nz = z != 0.0
    ell[nz] = (tails[:-1][nz] - tails[1:][nz]) / z[nz]
    return ell


def tail_norms(Z: np.ndarray) -> np.ndarray:
    """Trailing-subvector norms [n, d+1] by a backward hypot cascade.

    Column i holds |Z[:, i:]|; column 0 is the full Euclidean norm and the
    reference against which the direction identity is exact up to a few ulp.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    n, d = Z.shape
    tails = np.zeros((n, d + 1))
    for i in range(d - 1, -1, -1):
        tails[:, i] = np.hypot(Z[:, i], tails[:, i + 1])
    return tails


def unit_direction_batch(Z: np.ndarray) -> np.ndarray:
    """Row-wise ``unit_direction``; Z [n, d] -> ell [n, d]."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    tails = tail_norms(Z)
    ell = np.zeros_like(Z)
    nz = Z != 0.0
    diffs = tails[:, :-1] - tails[:, 1:]
    ell[nz] = diffs[nz] / Z[nz]
    return ell
