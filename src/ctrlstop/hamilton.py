"""Hamiltonian of the control problem and its truncations, one batch kernel each.

With z a row vector, H(t,x,z,a) = z . sigma(t,x)^-1 f(t,x,a) + gamma(t,x,a)
and H*(t,x,z) = max over the finite control set.  The two-sided truncation
damps the positive part beyond radius n and the negative part beyond radius m:

    Hbar^{n,m} = H*^+ rho_n(x) - H*^- rho_m(x),
    rho_m(x)   = clip(m + 1 - |x|, 0, 1).

Every kernel takes a batch of rows, X [n, d] and Z [n, d]; a single point is
a one-row batch.  H* is ``sup_hamiltonian_batch``, rho_m is ``cutoff_batch``
and the damping is ``truncate_values``.  H* returns the value only;
``first_maximiser`` is the one tie rule for a table of control values, by
which the finite-difference step records its control.

H* is a max of terms affine in W = sigma^-T z, so only upper extreme points of
{(f, gamma)} attain it.  With f and gamma free of t and x it skips a control whose
drift is the exact midpoint of two other, distinct drifts and whose reward is at most
their exact mean: strictly inside a segment of the hull, it never beats both ends.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import ProblemSpec

__all__ = [
    "GENERATORS",
    "check_generator",
    "TruncationIndex",
    "ladder_pairs",
    "sup_hamiltonian_batch",
    "cutoff_batch",
    "truncate_values",
    "TIE_TOL",
    "first_maximiser",
]

# relative tolerance under which two control values count as tied
TIE_TOL = 1e-12
# drivers of both solvers: H* (optionally truncated) or the majorant phi
GENERATORS = ("hstar", "dominating")


@dataclass(frozen=True)
class TruncationIndex:
    n: int  # radius beyond which the positive part is cut
    m: int  # radius beyond which the negative part is cut

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("truncation radii must be >= 1")

    @classmethod
    def covering(cls, radius: float) -> TruncationIndex:
        """The smallest pair with both radii >= radius + 1: no cutoff acts on |x| <= radius."""
        r = math.ceil(radius) + 1
        return cls(r, r)


def ladder_pairs(n_list, m_list):
    """Yield (axis, fixed, low, high, below, above) for each comparison of a truncation ladder.

    The truncated value rises with n and falls with m, so the solve at key
    ``below`` is dominated by the one at ``above`` (keys are (n, m)): first
    each consecutive pair in n for every m, then each consecutive pair in m
    for every n, in the order of the sorted lists.
    """
    for m in m_list:
        for n1, n2 in itertools.pairwise(n_list):
            yield "n", m, n1, n2, (n1, m), (n2, m)
    for n in n_list:
        for m1, m2 in itertools.pairwise(m_list):
            yield "m", n, m1, m2, (n, m2), (n, m1)


def check_generator(generator: str, trunc: TruncationIndex | None) -> None:
    """Raise ValueError for a generator outside GENERATORS or a truncated phi."""
    if generator not in GENERATORS:
        raise ValueError(f"generator must be one of {GENERATORS}")
    if generator == "dominating" and trunc is not None:
        raise ValueError("the dominating generator takes no truncation; drop trunc")


def _control_values(spec: ProblemSpec, t, X: np.ndarray, Z: np.ndarray, rows=None) -> np.ndarray:
    """H(t, x_i, z_i, a_k) for every control and row, shape [k, n]; with ``rows``, those controls only.

    z . sigma^{-1} f is evaluated as W . f with W = sigma^{-T} z, so sigma is
    inverted once per call and the control set enters through one drift and
    one reward evaluation.  ``ProblemSpec.sigma_solve`` divides by a diagonal
    sigma; any other sigma that reads neither t nor x is one LAPACK solve
    for all rows, and any other sigma is factorised per row.  With a state-free
    drift the contraction is a [k,d] @ [d,n] matmul.
    """
    sig = spec.sigma(t, X)
    coeffs = spec.coefficients
    if not coeffs.reads("sigma") and not coeffs.sigma_diagonal and X.shape[0]:
        W = np.linalg.solve(sig[0].T, Z.T)                                   # [d, n]
    else:
        W = spec.sigma_solve(sig, Z, transpose=True).T                       # [d, n]
    F, G = spec.control_table(t, X)
    if rows is not None and rows.size < F.shape[0]:
        F, G = F[rows], G[rows]
    if F.shape[1] == 1:
        vals = F[:, 0, :] @ W
    else:
        vals = np.einsum("knd,dn->kn", F, W)
    vals += G
    return vals


def first_maximiser(vals: np.ndarray):
    """Column-wise max of [k, n] values and the first index within TIE_TOL of it."""
    best = np.max(vals, axis=0)
    tol = TIE_TOL * np.maximum(1.0, np.abs(best))
    return best, np.argmax(vals >= best - tol, axis=0)


def sup_hamiltonian_batch(spec: ProblemSpec, t, X: np.ndarray, Z: np.ndarray):
    """Vectorised H* over rows of (X, Z); ``t`` is a scalar or one time per row.

    X and Z must both be [n, spec.dim] (a 1-d array is one row).  Returns
    the values [n]; they are ``first_maximiser``'s maxima of the same table.
    Only controls that can attain the maximum are evaluated, by the module
    docstring's exact rule, found on a spec's first call and cached on it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if Z.shape != X.shape or X.shape[1:] != (spec.dim,):
        raise ValueError(f"X and Z must both be [n, {spec.dim}], got {X.shape} and {Z.shape}")
    return np.max(_control_values(spec, t, X, Z, spec._hstar_rows), axis=0)


def cutoff_batch(m: float, X: np.ndarray) -> np.ndarray:
    """rho_m per row of X: 1 for |x| <= m, 0 beyond m + 1, linear between."""
    if m < 1:
        raise ValueError("cutoff level must be >= 1")
    return np.clip(m + 1.0 - np.linalg.norm(np.atleast_2d(X), axis=1), 0.0, 1.0)


def truncate_values(values: np.ndarray, rho_n: np.ndarray, rho_m: np.ndarray) -> np.ndarray:
    """Apply the two-sided damping to raw H* values (vectorised)."""
    pos = np.maximum(values, 0.0)
    neg = np.maximum(-values, 0.0)
    return pos * rho_n - neg * rho_m
