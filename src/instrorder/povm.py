"""POVMs and the classical post-processing preorder on them.

A POVM here is a list of labels and one read-only (n, dim, dim) stack of
effects on a fixed finite-dimensional space.  B is a post-processing of A
when there is a row-stochastic matrix ν with B(y) = Σ_x ν_xy A(x); deciding
that is a linear feasibility problem, posed in coordinates of the span of
A's effects.  When those effects are linearly independent ν is unique and
one linear solve decides.  Otherwise the phase-1 simplex does: first on
B's first outcome alone, whose "no" needs no more, then on the whole LP.
Each question logs one DEBUG record on this module's logger; the library
adds no handler.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import DimensionMismatch, LabelMismatch, UnknownLabel
from .feasibility import solve_nonnegative
from .linalg import DEFAULT_TOL, Tolerance, frob_dist, hermitize, is_hermitian, numerical_rank

# Not a Tolerance field: StochasticMatrix takes no tolerance, and this slack
# only absorbs float64 rounding in its entries and row sums (and in the
# mixture weights instrument.check_weights accepts).
_STOCH_TOL = 1e-12

# ε, the weight of the residual columns in find_post_processing's
# one-outcome relaxation.  It scales their reduced costs, so Dantzig's rule
# prefers the columns of nu; it changes no feasible set, so it is no
# Tolerance.
_RESIDUAL_WEIGHT = 1e-3

logger = logging.getLogger(__name__)


def first_index(labels) -> dict:
    """Position of each label's first occurrence."""
    return {label: i for i, label in reversed(list(enumerate(labels)))}


class Povm:
    """Labeled family of effects on a dim-dimensional space summing to identity.

    Built from (label, effect) pairs.  labels is a list of str; effects is
    one C-contiguous, read-only complex array of shape (n, dim, dim), copied
    from the pairs, so later writes to the caller's matrices do not reach
    the POVM.  A negative dim, or an effect that is not dim × dim, raises
    DimensionMismatch.
    """

    def __init__(self, dim: int, outcomes):
        if dim < 0:
            raise DimensionMismatch(f"dimension {dim} is negative")
        self.dim = dim
        self.labels = []
        stack = []
        for label, effect in outcomes:
            if np.shape(effect) != (dim, dim):
                raise DimensionMismatch(
                    f"effect {label!r} has shape {np.shape(effect)}, expected {(dim, dim)}"
                )
            self.labels.append(str(label))
            stack.append(effect)
        self.effects = np.array(stack, dtype=complex).reshape(len(stack), dim, dim)
        self.effects.flags.writeable = False
        self._index = first_index(self.labels)

    @property
    def outcomes(self):
        """A fresh list of (label, effect) pairs; each effect is a view of the stack."""
        return list(zip(self.labels, self.effects))

    def effect(self, label):
        if label not in self._index:
            raise UnknownLabel(f"no outcome labeled {label!r}")
        return self.effects[self._index[label]]

    def __len__(self):
        return len(self.labels)


@dataclass(eq=False)
class StochasticMatrix:
    """Row-stochastic matrix with labeled rows (sources) and columns (targets)."""

    row_labels: list
    col_labels: list
    entries: np.ndarray

    def __post_init__(self):
        self.row_labels = [str(l) for l in self.row_labels]
        self.col_labels = [str(l) for l in self.col_labels]
        self.entries = np.asarray(self.entries, dtype=float)
        shape = (len(self.row_labels), len(self.col_labels))
        if self.entries.shape != shape:
            raise ValueError(f"entries shape {self.entries.shape}, expected {shape}")
        if not np.isfinite(self.entries).all():
            raise ValueError("stochastic matrix entries must be finite")
        if self.entries.min(initial=0.0) < -_STOCH_TOL:
            raise ValueError("negative entry in stochastic matrix")
        sums = self.entries.sum(axis=1)
        if np.abs(sums - 1.0).max(initial=0.0) > _STOCH_TOL:
            raise ValueError("rows of stochastic matrix must sum to 1")
        self._rows = first_index(self.row_labels)
        self._cols = first_index(self.col_labels)

    def __getitem__(self, pair):
        row, col = pair
        if row not in self._rows:
            raise UnknownLabel(f"no row labeled {row!r}")
        if col not in self._cols:
            raise UnknownLabel(f"no column labeled {col!r}")
        return self.entries[self._rows[row], self._cols[col]]


@dataclass(eq=False)
class Grouping:
    """How minimal sufficiency merged outcomes: class label, weight, drops."""

    class_of: dict
    weights: dict
    dropped: list = field(default_factory=list)


@dataclass(eq=False)
class ValidationReport:
    ok: bool
    violations: list


def validate_povm(P: Povm, tol: Tolerance = DEFAULT_TOL) -> ValidationReport:
    """Check labels, hermiticity, positivity and completeness."""
    violations = []
    if P.dim <= 0:
        violations.append("dimension: must be a positive integer")
        return ValidationReport(False, violations)
    if len(set(P.labels)) != len(P.labels):
        violations.append("labels: duplicate outcome labels")
    for label, E in P.outcomes:
        if not is_hermitian(E, tol):
            violations.append(f"hermiticity[{label}]")
        else:
            w = np.linalg.eigvalsh(hermitize(E))
            if w.min() < -tol.eq_abs:
                violations.append(f"positivity[{label}]: eigenvalue {w.min():.3e}")
            if w.max() > 1.0 + tol.eq_abs:
                violations.append(f"effect bound[{label}]: eigenvalue {w.max():.6f} > 1")
    gap = frob_dist(P.effects.sum(axis=0), np.eye(P.dim))
    if gap > tol.eq_abs:
        violations.append(f"completeness: effects sum off identity by {gap:.3e}")
    return ValidationReport(not violations, violations)


def trivial_povm(p, dim: int, labels=None) -> Povm:
    """POVM with effects p_x * identity; carries no information about the state."""
    p = np.asarray(p, dtype=float)
    if labels is None:
        labels = [str(i) for i in range(len(p))]
    if len(labels) != len(p):
        raise LabelMismatch("one label per probability required")
    return Povm(dim, zip(labels, p[:, None, None] * np.eye(dim)))


def apply_post_processing(A: Povm, nu: StochasticMatrix) -> Povm:
    """Coarse-grain A through nu: B(y) = Σ_x nu_xy A(x)."""
    if nu.row_labels != A.labels:
        raise LabelMismatch("stochastic matrix rows must match the POVM's labels")
    return Povm(A.dim, zip(nu.col_labels, np.tensordot(nu.entries, A.effects, axes=(0, 0))))


def max_effect_distance(A: Povm, B: Povm) -> float:
    """Largest Frobenius distance between same-label effects (NaN if any
    distance is NaN)."""
    if A.dim != B.dim:
        raise DimensionMismatch(f"POVMs act on different spaces: {A.dim} vs {B.dim}")
    if A.labels != B.labels:
        raise LabelMismatch("POVMs carry different outcome labels")
    dists = np.linalg.norm(A.effects - B.effects, axis=(1, 2))
    return float(np.max(dists, initial=0.0))


@cache
def _upper_triangle(d: int):
    """np.triu_indices(d, 1), read-only: built once per dimension."""
    rows, cols = np.triu_indices(d, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _vec_hermitian(M: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix, or of each matrix in a stack
    (along the last axis): diagonal, then Re/Im above it.

    The off-diagonal parts carry a factor √2, so the Euclidean norm of the
    coordinates is the Frobenius norm of M.
    """
    rows, cols = _upper_triangle(M.shape[-1])
    off = np.sqrt(2.0) * M[..., rows, cols]
    diag = np.diagonal(M, axis1=-2, axis2=-1).real
    return np.concatenate([diag, off.real, off.imag], axis=-1)


def find_post_processing(A: Povm, B: Povm, tol: Tolerance = DEFAULT_TOL):
    """Stochastic matrix nu with B(y) = Σ_x nu_xy A(x), or None if none exists.

    Everything is posed in an orthonormal basis Q of span{A(x)}: the left
    singular vectors of the effects' coordinates (_vec_hermitian) whose
    singular values s clear numpy's matrix_rank cutoff; r = dim span{A(x)}.
    Every Σ_x nu_xy A(x) lies in that span, so a B(y) farther than
    tol.eq_abs from it can never pass the replay check below: that pair is
    a "no" before anything else.  Then one of two routes decides:

    Independent effects (r = n_a): the coordinates C_A of A's effects are
    an invertible n_a × n_a matrix and nu* = C_A⁻¹ C_B is the only exact
    solution.  Any stochastic nu that passes the replay check has
    ‖C_A (nu − nu*)_{·y}‖ ≤ tol.eq_abs per column (the part of B(y) outside
    the span is orthogonal to it), so nu_xy ≥ nu*_xy − tol.eq_abs / s_min
    with s_min = s[r − 1].  Hence min nu* < −2·tol.eq_abs / s_min is a
    "no"; the factor 2 absorbs rounding.  Otherwise nu* is clipped at 0,
    its rows are renormalized, and the result is returned if it passes the
    replay check.  If it does not, the LP below decides.

    Dependent effects (r < n_a), or a clipped nu* that failed the replay:
    the phase-1 LP, with r rows per target outcome rather than d².  The
    last outcome's block is left out: the row sums give
    Σ_y Σ_x nu_xy A(x) = Σ_x A(x), which for POVMs is Σ_y B(y), so the last
    block holds once the others do.  The coordinates are orthonormal, so
    the phase-1 objective (the l1 residual) bounds the kept blocks'
    Frobenius residuals.  Renormalizing the rows of nu adds at most
    max_x ‖A(x)‖_F times the row sums' l1 residual to those residuals
    together, and the dropped block's replay residual is minus their sum.
    So every replayed effect misses B by at most max(1, max_x ‖A(x)‖_F)
    times the objective, and feas_tol is tol.eq_abs divided by that factor.
    Leaving the last block out also makes each nu_{x, n_b−1} a column with
    a single 1, in row x's row sum: the simplex starts it basic there, so
    the n_a row-sum rows start feasible and only the (n_b − 1)·r block rows
    start with an artificial variable.

    Before that LP is built, when n_b ≥ 3, the relaxation for B's first
    outcome alone can answer "no".  The simplex negates each row whose
    right-hand side is negative, and its phase-1 objective sums the
    residuals of the artificial rows, each ≥ 0 in that orientation.  The
    relaxation asks for nu_·0 ∈ [0, 1]^{n_a} whose block-0 residuals c_B(0)
    − C_A nu_·0, so oriented, are ≥ 0 and sum to at most feas_tol.  Every
    column of a stochastic nu lies in that box, and wherever the LP's
    simplex stops with an objective within feas_tol, its block 0 meets
    that.  So a relaxation that the simplex finds infeasible is, up to
    rounding, a "no" the LP would give, whatever its pivot path.  The
    residuals are budgeted by columns p (weighted by _RESIDUAL_WEIGHT) and
    a budget row, rather than left to the artificial variables: those
    never re-enter the basis, so on a pair within rounding of the boundary
    the simplex could stop above feas_tol at a basis where the optimum lies
    below it.  With the budget such a pair is exactly feasible, and the
    simplex reaches it.  The relaxation is (r + n_a + 1) × (2n_a + r + 1),
    for example 21 × 37 where the LP is 44 × 128 (16 qubit effects, 8
    target outcomes), and only its r coordinate rows start artificial.  At
    n_b = 2 the LP is the relaxation without the budget.  A pair the
    relaxation does not refute goes on to the LP, so every "yes" comes
    from the LP alone.

    On every route a candidate is only returned after replaying it
    through apply_post_processing and checking every reconstructed effect
    against B within tol.eq_abs.  The DEBUG record on instrorder.povm sets
    the fields route ("span", "direct", "relaxation" or "lp"), answer
    (whether nu was found) and shape (of the decisive system on the two LP
    routes, else None).
    """
    if A.dim != B.dim:
        raise DimensionMismatch(f"POVMs act on different spaces: {A.dim} vs {B.dim}")
    n_a, n_b = len(A), len(B)
    vec_a = _vec_hermitian(A.effects).T
    vec_b = _vec_hermitian(B.effects).T

    U, s, _ = np.linalg.svd(vec_a, full_matrices=False)
    Q = U[:, s > s.max(initial=0.0) * max(vec_a.shape) * np.finfo(float).eps]
    coords_a = Q.T @ vec_a
    coords_b = Q.T @ vec_b
    if np.linalg.norm(vec_b - Q @ coords_b, axis=0).max(initial=0.0) > tol.eq_abs:
        return _answer("span", None)

    r = Q.shape[1]
    if 0 < r == n_a and n_b > 0:
        nu_star = np.linalg.solve(coords_a, coords_b)
        if nu_star.min() < -2.0 * tol.eq_abs / s[r - 1]:
            return _answer("direct", None)
        entries = np.clip(nu_star, 0.0, None)
        sums = entries.sum(axis=1, keepdims=True)
        if sums.min() > 0.0:  # a zero row would renormalize to NaN, which no replay rejects
            nu = _replayed(A, B, entries / sums, tol)
            if nu is not None:
                return _answer("direct", nu)

    scale = max(1.0, np.linalg.norm(vec_a, axis=0).max(initial=0.0))
    feas_tol = tol.eq_abs / scale
    if n_b >= 3:
        # B(0) alone, its residuals budgeted to feas_tol:
        # [C_A 0 εD 0; I I 0 0; 0 0 1ᵀ 1]·[nu_·0; s; p; t]
        # = [c_B(0); 1; feas_tol / ε], where D = diag(±1) orients each p
        # as the simplex orients its row.  s and t are slack columns of the
        # bound and budget rows, so only the r coordinate rows start
        # artificial.
        M = np.zeros((r + n_a + 1, 2 * n_a + r + 1))
        M[:r, :n_a] = coords_a
        M[:r, 2 * n_a : -1] = np.diag(np.where(coords_b[:, 0] < 0, -_RESIDUAL_WEIGHT, _RESIDUAL_WEIGHT))
        M[r:-1, : 2 * n_a] = np.tile(np.eye(n_a), 2)
        M[-1, 2 * n_a :] = 1.0
        rhs = np.concatenate([coords_b[:, 0], np.ones(n_a), [feas_tol / _RESIDUAL_WEIGHT]])
        if solve_nonnegative(M, rhs, feas_tol) is None:
            return _answer("relaxation", None, M.shape)

    blocks = max(n_b - 1, 0)
    M = np.zeros((blocks * r + n_a, n_a * n_b))  # nu[x, y] at column x * n_b + y
    rhs = np.ones(blocks * r + n_a)
    for y in range(blocks):
        M[y * r : (y + 1) * r, y::n_b] = coords_a
        rhs[y * r : (y + 1) * r] = coords_b[:, y]
    M[blocks * r :] = np.kron(np.eye(n_a), np.ones(n_b))

    sol = solve_nonnegative(M, rhs, feas_tol=feas_tol)
    if sol is None:
        return _answer("lp", None, M.shape)
    entries = sol.reshape(n_a, n_b)  # already ≥ 0
    return _answer("lp", _replayed(A, B, entries / entries.sum(axis=1, keepdims=True), tol), M.shape)


def _answer(route: str, nu, shape=None):
    """Log how find_post_processing decided, then return its answer nu."""
    stats = {"route": route, "answer": nu is not None, "shape": shape}
    logger.debug("find_post_processing by %(route)s, shape %(shape)s: answer %(answer)s", stats, extra=stats)
    return nu


def _replayed(A: Povm, B: Povm, entries: np.ndarray, tol: Tolerance):
    """The stochastic matrix with these entries if it rebuilds every effect
    of B from A within tol.eq_abs, else None."""
    nu = StochasticMatrix(A.labels, B.labels, entries)
    # Written so that a NaN distance fails the check.
    if not max_effect_distance(apply_post_processing(A, nu), B) <= tol.eq_abs:
        return None
    return nu


def _label_images(labels, f):
    """The label map f (a dict or callable on labels) applied to each label,
    as a str, and the distinct images in order of first appearance.  Raises
    LabelMismatch on a label where f is not defined."""
    mapper = f.__getitem__ if isinstance(f, dict) else f
    images = []
    for label in labels:
        try:
            images.append(str(mapper(label)))
        except KeyError:
            raise LabelMismatch(f"label map not defined on {label!r}") from None
    return images, list(dict.fromkeys(images))


def relabel(A: Povm, f) -> Povm:
    """Merge outcomes along the label map f (a dict or callable on labels):
    the post-processing by the 0/1 matrix sending x to f(x)."""
    images, targets = _label_images(A.labels, f)
    col = first_index(targets)
    entries = np.zeros((len(A), len(targets)))
    entries[np.arange(len(A)), [col[t] for t in images]] = 1.0
    return apply_post_processing(A, StochasticMatrix(A.labels, targets, entries))


def is_trivial(A: Povm, tol: Tolerance = DEFAULT_TOL):
    """If every effect is a multiple of identity, return the weights, else None."""
    w = np.trace(A.effects, axis1=1, axis2=2).real / A.dim
    off = np.linalg.norm(A.effects - w[:, None, None] * np.eye(A.dim), axis=(1, 2))
    if off.max(initial=0.0) > tol.eq_abs:
        return None
    return np.maximum(w, 0.0)


def is_indecomposable_povm(A: Povm, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when every nonvanishing effect has rank one."""
    for E in A.effects:
        if np.trace(E).real <= tol.eq_abs:
            continue
        if numerical_rank(E, tol) != 1:
            return False
    return True


def minimal_sufficient(A: Povm, tol: Tolerance = DEFAULT_TOL):
    """Drop vanishing effects and merge pairwise-proportional ones.

    Returns (reduced POVM, Grouping).  An effect whose trace is at most
    tol.eq_abs is dropped (a NaN trace is kept).  Proportionality is tested
    on trace-normalized effects and chains: a≈b and b≈c put a, b and c in
    one class even when a≉c.  Classes come in order of their first member
    and keep its label; weights record each member's share of the class
    effect.
    """
    kept = []
    dropped = []
    for label, E in A.outcomes:
        if np.trace(E).real <= tol.eq_abs:
            dropped.append(label)
        else:
            kept.append((label, E))

    normed = [E / np.trace(E).real for _, E in kept]
    first = list(range(len(kept)))  # first[i]: the first member of i's class
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            if first[i] != first[j] and frob_dist(normed[i], normed[j]) <= tol.eq_abs:
                lo, hi = sorted((first[i], first[j]))
                first = [lo if f == hi else f for f in first]

    classes = {}
    for f, member in zip(first, kept):
        classes.setdefault(f, []).append(member)
    outcomes = []
    class_of = {}
    weights = {}
    for members in classes.values():
        class_label = members[0][0]
        total = sum((E for _, E in members), np.zeros((A.dim, A.dim), dtype=complex))
        class_trace = np.trace(total).real
        for label, E in members:
            class_of[label] = class_label
            weights[label] = np.trace(E).real / class_trace
        outcomes.append((class_label, total))
    return Povm(A.dim, outcomes), Grouping(class_of, weights, dropped)


def povm_equivalent(A: Povm, B: Povm, tol: Tolerance = DEFAULT_TOL):
    """Decide post-processing equivalence by pairing minimally sufficient forms.

    Returns (nu, mu) where nu turns B into A and mu turns A into B, or None
    when the reduced POVMs are not a relabeling of each other: each class of
    A takes the first unpaired class of B within tol.eq_abs.  An entry is
    the column outcome's weight in its class where the row's class is paired
    with it, else 0.  Rows belonging to vanishing effects distribute their
    unit mass uniformly; this never affects the reconstruction.
    """
    if A.dim != B.dim:
        raise DimensionMismatch(f"POVMs act on different spaces: {A.dim} vs {B.dim}")
    red_a, grp_a = minimal_sufficient(A, tol)
    red_b, grp_b = minimal_sufficient(B, tol)
    if len(red_a) != len(red_b):
        return None

    paired = {}  # class label of B -> number of the class of A paired with it
    for i, Ea in enumerate(red_a.effects):
        unpaired = (lb for lb, Eb in red_b.outcomes if lb not in paired and frob_dist(Ea, Eb) <= tol.eq_abs)
        hit = next(unpaired, None)
        if hit is None:
            return None
        paired[hit] = i

    # Each outcome's class as the number of A's class; -1 for a vanishing effect.
    number = first_index(red_a.labels)
    cls_a = [number.get(grp_a.class_of.get(l), -1) for l in A.labels]
    cls_b = [paired.get(grp_b.class_of.get(l), -1) for l in B.labels]
    w_a = [grp_a.weights.get(l, 0.0) for l in A.labels]
    w_b = [grp_b.weights.get(l, 0.0) for l in B.labels]
    nu = _replayed(B, A, _class_weights(cls_b, cls_a, w_a), tol)
    mu = _replayed(A, B, _class_weights(cls_a, cls_b, w_b), tol)
    return None if nu is None or mu is None else (nu, mu)


def _class_weights(rows, cols, col_weights) -> np.ndarray:
    """Entries [y, x] = col_weights[x] where row y and column x lie in the
    same class, else 0; a row in class -1 (a vanishing effect) is uniform."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    out = np.where(rows[:, None] == cols, col_weights, 0.0)
    out[rows < 0] = 1.0 / max(len(cols), 1)  # no columns: nothing to spread
    return out


def proportional_inequivalent_pair():
    """Two qubit POVMs with pairwise-proportional effects that are not
    post-processing equivalent.

    Both measure the same four rank-one directions (computational basis and
    its Hadamard rotation); only the weights differ, (1/2, 1/2, 1/2, 1/2)
    against (1/3, 1/3, 2/3, 2/3).
    """
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    h0 = (e0 + e1) / np.sqrt(2.0)
    h1 = (e0 - e1) / np.sqrt(2.0)
    projs = [np.outer(v, v.conj()) for v in (e0, e1, h0, h1)]
    labels = ["1", "2", "3", "4"]
    wa = [0.5, 0.5, 0.5, 0.5]
    wb = [1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0]
    A = Povm(2, [(l, w * P) for l, w, P in zip(labels, wa, projs)])
    B = Povm(2, [(l, w * P) for l, w, P in zip(labels, wb, projs)])
    return A, B
