"""Tolerance-aware dense complex linear algebra shared by all modules.

Everything here operates on plain ``numpy`` arrays with ``complex`` dtype.
Operator equality always means Frobenius-norm distance below ``eq_abs``;
rank decisions use a relative singular-value cutoff ``rank_rel``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, PreconditionViolated


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used throughout the library.

    eq_abs: absolute Frobenius-norm threshold for operator equality, in
    (0, inf): an infinite threshold makes any two operators equal.
    rank_rel: relative singular-value cutoff for rank decisions, in
    (0, 1): at 1 or above every numerical rank is 0.
    """

    eq_abs: float = 1e-9
    rank_rel: float = 1e-8

    def __post_init__(self):
        # written as ranges that hold, so that a NaN fails them
        if not 0 < self.eq_abs < np.inf:
            raise ValueError("eq_abs must be positive and finite")
        if not 0 < self.rank_rel < 1:
            raise ValueError("rank_rel must lie strictly between 0 and 1")


DEFAULT_TOL = Tolerance()


def frob(M: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(M))


def frob_dist(A: np.ndarray, B: np.ndarray) -> float:
    """Frobenius distance between two matrices of equal shape."""
    return float(np.linalg.norm(np.asarray(A) - np.asarray(B)))


def hermitize(M: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M†)/2."""
    M = np.asarray(M)
    return (M + M.conj().T) / 2


def is_hermitian(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    return frob_dist(M, np.asarray(M).conj().T) <= tol.eq_abs


def numerical_rank(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above rank_rel times the largest one.

    The zero matrix has rank 0.
    """
    s = np.linalg.svd(np.asarray(M, dtype=complex), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_rel * s[0]))


def range_projector(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian idempotent projector onto the column space of M.

    Satisfies P = P† = P² and PM = M within eq_abs, with
    rank(P) = numerical_rank(M).
    """
    M = np.asarray(M, dtype=complex)
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[0], M.shape[0]), dtype=complex)
    r = int(np.count_nonzero(s > tol.rank_rel * s[0]))
    ur = u[:, :r]
    return ur @ ur.conj().T


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root; small negative eigenvalues are clipped."""
    w, v = np.linalg.eigh(hermitize(M))
    w = np.clip(w, 0.0, None)
    # eigensolver noise O(eps)*max would surface as sqrt(eps) directions in
    # the root; zeroing below this floor costs at most ~1e-13 in the square
    w[w < w.max(initial=0.0) * 1e-13] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def partial_isometry_factor(
    K: np.ndarray, L: np.ndarray, c: float, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Factor K = √c · U L for operators with proportional Gram matrices.

    Requires K†K = c·L†L within eq_abs.  The returned U maps the output
    space of L to the output space of K and is a partial isometry:

    * if rows(K) ≥ rows(L), then U†U = I (U is an isometry);
    * if rows(K) < rows(L), then UU† = I and U†U acts as identity on the
      range of L.

    Because the Gram matrices are proportional, K and L share their right
    singular structure; U pairs the left singular bases.  Singular values
    equal within rank_rel × σ_max are grouped into blocks and their
    subspaces matched jointly (the overlap polished to its nearest
    unitary), which keeps the pairing stable under degeneracy and under
    square-root dust in nearly-rank-deficient inputs.
    """
    K = np.asarray(K, dtype=complex)
    L = np.asarray(L, dtype=complex)
    if K.shape[1] != L.shape[1]:
        raise DimensionMismatch(
            f"K and L must share the input dimension, got {K.shape[1]} and {L.shape[1]}"
        )
    if c <= 0:
        raise PreconditionViolated("proportionality constant must be positive")
    gap = frob_dist(K.conj().T @ K, c * (L.conj().T @ L))
    if gap > tol.eq_abs:
        raise PreconditionViolated(
            f"Gram matrices are not proportional: ||K†K - c·L†L|| = {gap:.3e}"
        )

    dk = K.shape[0]
    dv = L.shape[0]
    uk, sk, vkh = np.linalg.svd(K)
    ul, sl, vlh = np.linalg.svd(L)
    vk = vkh.conj().T
    vl = vlh.conj().T

    # Pair every available singular direction; unmatched output directions
    # of K only ever multiply null directions of L, so any orthonormal
    # completion is exact.
    p = min(sk.size, sl.size)
    cut = tol.rank_rel * (sk[0] if sk.size else 0.0)
    edges = [0]
    for m in range(1, p):
        if sk[m - 1] - sk[m] > cut:
            edges.append(m)
    edges.append(p)

    matched = np.zeros((dk, p), dtype=complex)
    for a, b in zip(edges[:-1], edges[1:]):
        overlap = vk[:, a:b].conj().T @ vl[:, a:b]
        wu, _, wvh = np.linalg.svd(overlap)
        matched[:, a:b] = uk[:, a:b] @ (wu @ wvh)

    out_basis = np.hstack([matched, uk[:, p:]])
    n = min(dk, dv)
    return out_basis[:, :n] @ ul[:, :n].conj().T
