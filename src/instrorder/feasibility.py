"""Dense linear feasibility: find x ≥ 0 with A x = b.

A self-contained phase-1 simplex.  The tableau is [B⁻¹A | B⁻¹b] plus the
objective row: (m+1)×(n+1) cells.  The artificial columns (B⁻¹ itself) are
not stored: artificials never re-enter the basis and x is read from the
last column, so nothing reads them.  A Farkas dual would solve Bᵀy = c_B
once, on the final basis columns of [A | I].

Starting basis: after rows with b_i < 0 are negated, a column of A whose
only nonzero entry is positive and above _PIVOT_TOL is a slack column of
its row.  The first slack column of each row starts basic there, with the
row divided by the entry, so that row starts feasible.  Only the other
rows get an artificial variable, and the phase-1 objective sums only
those rows; a system whose every row has a slack column takes no pivot.
In find_post_processing's LP the columns nu_{x, n_b−1} are slack columns
of the n_a row-sum rows, and in its one-outcome relaxation the columns s
and t are those of the bound rows and the budget row.

Pricing is Dantzig's rule: the entering column has the most negative
reduced cost, the first such column on a tie.  The leaving row is the
stablest pivot among near-minimum ratios: the largest column entry, then
the smallest basis index.  Neither rule is Bland's, so a degenerate
vertex could cycle.  After _BLAND_AFTER·m consecutive pivots whose
minimum ratio is exactly 0, the search falls back to Bland's rule for the
rest of the solve: the smallest-index column with a negative reduced cost
enters, and the smallest basis index among the near-minimum rows leaves.
_MAX_ITER pivots still end the search with SolverError.

On the tableaux find_post_processing builds (about 10×20 to 80×130) a
pivot costs numpy call overhead more than arithmetic, so each pivot makes
few calls: one argmin over the objective row (a second, masked search
only when that argmin finds no negative cost or stops at a NaN), ratios
over the rows whose column entry clears _PIVOT_TOL only, lexsort only
when more than one row ties for the leaving row, and an in-place update
T -= other ⊗ row of the divided pivot row.  The outer product is np.dot
with inner dimension 1, about half the time of a broadcast multiply,
whose per-row loop overhead dominates at these sizes; each entry is
still the one rounded product other_i · row_j (only the sign of an exact
zero may differ, which no comparison and no x, clipped at +0, sees).
These shortcuts change no rule and no rounded operation of the textbook
formulation (ratios masked over every row, np.outer for the update), so
the pivot path and x match it to the bit; tests/test_feasibility.py pins
that against a full-tableau reference, on random systems and on the LPs
find_post_processing builds.

Each solve logs one DEBUG record on this module's logger, with the fields
shape, artificials (at the start), pivots, objective (the final phase-1
objective) and bland (whether the fallback fired) set on the record.  The
library adds no handler.

find_post_processing calls it only when the source effects are linearly
dependent (n_a > r = dim span), or when its direct solve fails the replay
check.  It then solves, when B has n_b ≥ 3 outcomes, first the relaxation
for B's first outcome alone: r + n_a + 1 rows × 2n_a + r + 1 variables,
of which r rows start artificial, for example 21 × 37 for 16 qubit
effects.  Only if that is feasible does it solve the LP: (n_b − 1)·r + n_a
rows × n_a·n_b variables, (n_b − 1)·r of the rows artificial, for example
44 × 128 for 16 qubit effects and 8 target outcomes.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import SolverError

_PIVOT_TOL = 1e-11  # float64 rounding on the tableau's scale, not a Tolerance
_MAX_ITER = 50_000  # pivots before SolverError
_BLAND_AFTER = 1  # zero-ratio pivots in a row, per row of A, before Bland's rule

logger = logging.getLogger(__name__)


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

    # Slack start: the first column per row whose one nonzero entry is a
    # positive pivot there.  Row-major nonzero() lists each row's columns
    # in order, so unique's first index per row is its first such column.
    single = (np.count_nonzero(A, axis=0) == 1).nonzero()[0]
    units, cols = (A[:, single] > _PIVOT_TOL).nonzero()
    units, first = np.unique(units, return_index=True)
    cols = single[cols[first]]
    artificial = np.ones(m, dtype=bool)
    artificial[units] = False

    # Tableau [B⁻¹A | B⁻¹b] plus the phase-1 objective row.  B⁻¹ divides
    # each slack row by its entry; the reduced costs of the x-columns are
    # minus the column sums over the artificial rows.
    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    T[units] /= A[units, cols][:, None]
    T[m, :n] = -A[artificial].sum(axis=0)
    T[m, -1] = -b[artificial].sum()
    basis = np.arange(n, n + m)
    basis[units] = cols
    cost = T[m, :n]  # views: the update below writes T in place
    rhs = T[:m, -1]
    bland_after = _BLAND_AFTER * m
    degenerate = 0  # consecutive pivots whose minimum ratio was 0
    bland = False

    for pivots in range(_MAX_ITER):
        if -T[m, -1] <= feas_tol:
            break  # already within tolerance; pivoting on leftover dust
            # would divide rounding noise by near-zero pivot elements
        if n == 0:
            break  # no column can enter, and argmin of an empty row raises
        bland = bland or degenerate >= bland_after
        enter = cost.argmin()
        if bland or not cost[enter] < -_PIVOT_TOL:
            # Bland's rule, no negative reduced cost, or argmin stopped at
            # the first NaN: search among the negative entries, which
            # skips NaNs
            negative = (cost < -_PIVOT_TOL).nonzero()[0]
            if negative.size == 0:
                break
            enter = negative[0] if bland else negative[cost[negative].argmin()]

        col = T[:m, enter]
        rows = (col > _PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            raise SolverError("phase-1 simplex became unbounded")
        # basic values are nonnegative up to rounding; clamp so that dust
        # like -1e-17 cannot win the ratio test with a negative ratio
        ratios = np.maximum(rhs[rows], 0.0) / col[rows]
        best = np.minimum.reduce(ratios)
        degenerate = degenerate + 1 if best == 0.0 else 0
        # among near-minimum-ratio rows pivot on the largest column entry;
        # the slack groups rounding-level ties (float64 noise, so not a
        # Tolerance), the size rule keeps the update stable, the index
        # rule (smallest basis index) keeps the choice deterministic;
        # Bland's rule takes the smallest basis index alone
        slack = best + 1e-13 * (1.0 + best)
        near = (ratios <= slack).nonzero()[0]
        if near.size == 1:
            leave = rows[near[0]]
        else:
            near = rows[near]
            pick = basis[near].argmin() if bland else np.lexsort((basis[near], -col[near]))[0]
            leave = near[pick]

        row = T[leave]
        row /= row[enter]
        other = T[:, enter].copy()
        other[leave] = 0.0
        T -= np.dot(other[:, None], row[None, :])
        basis[leave] = enter
    else:
        raise SolverError("phase-1 simplex iteration limit exceeded")

    objective = -T[m, -1]
    stats = {
        "shape": (m, n),
        "artificials": m - units.size,
        "pivots": pivots,
        "objective": float(objective),
        "bland": bland,
    }
    logger.debug(
        "phase-1 simplex %(shape)s: %(artificials)d artificials, %(pivots)d pivots, "
        "objective %(objective).3g, Bland's rule %(bland)s",
        stats,
        extra=stats,
    )
    if objective > feas_tol:
        return None
    x = np.zeros(n)
    real = basis < n
    x[basis[real]] = T[:m, -1][real]
    np.clip(x, 0.0, None, out=x)
    return x
