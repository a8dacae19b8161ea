"""Dense linear feasibility: find x ≥ 0 with A x = b.

A self-contained phase-1 simplex.  One artificial variable per row; the
entering column is the first with a negative reduced cost (deterministic),
the leaving row is the stablest pivot among near-minimum ratios.  Problems
here are tiny (a few hundred variables at most), so a dense tableau is fine.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError

_PIVOT_TOL = 1e-11


def solve_nonnegative(
    A: np.ndarray,
    b: np.ndarray,
    feas_tol: float = 1e-9,
    max_iter: int = 50_000,
):
    """Return x ≥ 0 solving A x = b, or None when infeasible.

    The system counts as infeasible when the optimal phase-1 objective
    (total artificial mass, i.e. the l1 residual) exceeds feas_tol.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape

    flip = np.where(b < 0, -1.0, 1.0)
    A = A * flip[:, None]
    b = b * flip

    # Tableau [B⁻¹A | B⁻¹I | B⁻¹b] plus the phase-1 objective row.  With the
    # artificial basis the reduced costs of the x-columns are -colsum(A).
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = list(range(n, n + m))

    for _ in range(max_iter):
        if -T[m, -1] <= feas_tol:
            break  # already within tolerance; pivoting on leftover dust
            # would divide rounding noise by near-zero pivot elements
        enter = -1
        for j in range(n):  # artificials never re-enter
            if T[m, j] < -_PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            break

        col = T[:m, enter]
        eligible = col > _PIVOT_TOL
        if not eligible.any():
            raise SolverError("phase-1 simplex became unbounded")
        # basic values are nonnegative up to rounding; clamp so that dust
        # like -1e-17 cannot win the ratio test with a negative ratio
        rhs_col = np.clip(T[:m, -1], 0.0, None)
        ratios = np.where(eligible, rhs_col / np.where(eligible, col, 1.0), np.inf)
        best = ratios.min()
        # among near-minimum-ratio rows pivot on the largest column entry;
        # the slack groups rounding-level ties, the size rule keeps the
        # update stable, the index rule keeps the choice deterministic
        slack = best + 1e-13 * (1.0 + best)
        leave = max(
            (i for i in range(m) if eligible[i] and ratios[i] <= slack),
            key=lambda i: (col[i], -basis[i]),
        )

        piv = T[leave, enter]
        T[leave] /= piv
        other = T[:, enter].copy()
        other[leave] = 0.0
        T -= np.outer(other, T[leave])
        basis[leave] = enter
    else:
        raise SolverError("phase-1 simplex iteration limit exceeded")

    objective = -T[m, -1]
    if objective > feas_tol:
        return None
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = T[i, -1]
    np.clip(x, 0.0, None, out=x)
    return x
