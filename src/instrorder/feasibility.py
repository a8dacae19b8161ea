"""Dense linear feasibility: find x ≥ 0 with A x = b.

A self-contained phase-1 simplex that starts from one artificial variable
per row.  The tableau is [B⁻¹A | B⁻¹b] plus the objective row: (m+1)×(n+1)
cells.  The artificial columns (B⁻¹ itself) are not stored: artificials
never re-enter the basis and x is read from the last column, so nothing
reads them.  A Farkas dual would solve Bᵀy = c_B once, on the final basis
columns of [A | I].

Pricing is Dantzig's rule: the entering column has the most negative
reduced cost, the first such column on a tie.  The leaving row is the
stablest pivot among near-minimum ratios.  Neither rule is Bland's, so a
degenerate vertex can cycle; _MAX_ITER pivots then end the search with
SolverError.

On the tableaux find_post_processing builds (about 20×30 to 80×130) a
pivot costs numpy call overhead more than arithmetic, so each pivot makes
few calls: one argmin over the objective row (a second, masked search
only when that argmin finds no negative cost or stops at a NaN), ratios
over the rows whose column entry clears _PIVOT_TOL only, lexsort only
when more than one row ties for the leaving row, and an in-place update
T -= other ⊗ row of the divided pivot row.  These shortcuts change no
rule and no rounded operation of the textbook formulation (ratios masked
over every row, np.outer for the update), so the pivot path and x match
it to the bit; tests/test_feasibility.py pins that against a full-tableau
reference, on random systems and on the LPs find_post_processing builds.

find_post_processing calls it only when the source effects are linearly
dependent (n_a > r = dim span), or when its direct solve fails the replay
check; the LP then has n_a·n_b variables × (n_b − 1)·r + n_a rows, for
example 128 × 44 for 16 qubit effects and 8 target outcomes.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError

_PIVOT_TOL = 1e-11  # float64 rounding on the tableau's scale, not a Tolerance
_MAX_ITER = 50_000  # pivots before SolverError, since the rules can cycle


def solve_nonnegative(A: np.ndarray, b: np.ndarray, feas_tol: float = 1e-9):
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

    # Tableau [B⁻¹A | B⁻¹b] plus the phase-1 objective row.  With the
    # artificial basis the reduced costs of the x-columns are -colsum(A).
    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = np.arange(n, n + m)
    cost = T[m, :n]  # views: the update below writes T in place
    rhs = T[:m, -1]

    for _ in range(_MAX_ITER):
        if -T[m, -1] <= feas_tol:
            break  # already within tolerance; pivoting on leftover dust
            # would divide rounding noise by near-zero pivot elements
        if n == 0:
            break  # no column can enter, and argmin of an empty row raises
        enter = cost.argmin()
        if not cost[enter] < -_PIVOT_TOL:
            # no negative reduced cost, or argmin stopped at the first NaN:
            # search again among the negative entries, which skips NaNs
            negative = np.flatnonzero(cost < -_PIVOT_TOL)
            if negative.size == 0:
                break
            enter = negative[cost[negative].argmin()]

        col = T[:m, enter]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        if rows.size == 0:
            raise SolverError("phase-1 simplex became unbounded")
        # basic values are nonnegative up to rounding; clamp so that dust
        # like -1e-17 cannot win the ratio test with a negative ratio
        ratios = np.maximum(rhs[rows], 0.0) / col[rows]
        best = ratios.min()
        # among near-minimum-ratio rows pivot on the largest column entry;
        # the slack groups rounding-level ties (float64 noise, so not a
        # Tolerance), the size rule keeps the update stable, the index
        # rule (smallest basis index) keeps the choice deterministic
        slack = best + 1e-13 * (1.0 + best)
        near = np.flatnonzero(ratios <= slack)
        if near.size == 1:
            leave = rows[near[0]]
        else:
            near = rows[near]
            leave = near[np.lexsort((basis[near], -col[near]))[0]]

        row = T[leave]
        row /= row[enter]
        other = T[:, enter].copy()
        other[leave] = 0.0
        T -= other[:, None] * row
        basis[leave] = enter
    else:
        raise SolverError("phase-1 simplex iteration limit exceeded")

    objective = -T[m, -1]
    if objective > feas_tol:
        return None
    x = np.zeros(n)
    real = basis < n
    x[basis[real]] = T[:m, -1][real]
    np.clip(x, 0.0, None, out=x)
    return x
