"""Quantum operations, instruments, and structural post-processing on them.

Operations are stored in Kraus form; their Choi matrix is cached, and the
Choi distance of two operations is read from their Kraus matrices without
forming it (choi_distance).  The Choi convention pairs the input index with the
row block: C = Σ_k vec(K_k) vec(K_k)† with vec(K)[i * dim_out + a] = K[a, i],
so the identity channel has Choi Σ_ij |ii⟩⟨jj| and tracing out the output
block returns the transposed induced effect.

The Choi matrix and the minimal Kraus form are read from one stacked matrix
V whose columns are the vec(K_k) (_kraus_columns): C = V V†, and the
minimal Kraus form comes from a thin SVD of V.  Choi distances compare the
Kraus stacks as rows (_kraus_rows, a free reshape that permutes the Choi
matrix's indices the same way for every operation) through a kernel picked
by shape (_gram_gap): dense, a joint thin QR, or a projection on the
smaller side.

Post-processing has one product rule (_post_processed_kraus): the Kraus
stack of J_y = Σ_x R^(x)_y ∘ I_x holds the products of each processor's
Kraus matrices at y with the source's at x.  compose_post_processing builds
its operations from it, and order.witness_error replays witnesses from it
without building the composed instrument.

An operation's Kraus form is one C-contiguous, read-only complex array of
shape (k, dim_out, dim_in), copied from the matrices it is built from (a
stacked array has its shape checked once, a list matrix by matrix).  The
constructor owns the zero rule: matrices that are exactly zero are dropped,
and when none is left the array holds one zero matrix, so an empty list
builds the zero operation.  Constructions therefore hand over whatever
products or scaled matrices they form and never filter or pad them.

Operations are immutable, which the read-only array enforces, so each
operation caches its Choi matrix and, per Tolerance, its minimal Kraus form
(see minimal_kraus).  Every classifier and witness reads the Choi rank from
that one cached form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, LabelMismatch, OutcomeSetMismatch, UnknownLabel
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    frob,
    frob_dist,
    hermitize,
    is_hermitian,
    psd_sqrt,
)
from .povm import _STOCH_TOL, Povm, ValidationReport, _label_images, first_index, trivial_povm


@dataclass(eq=False)
class QuantumOperation:
    """Completely positive map given by Kraus matrices of shape (dim_out, dim_in),
    kept as one read-only (k, dim_out, dim_in) complex array: exactly zero
    matrices are dropped (a NaN matrix is not zero), and with none left the
    array holds one zero matrix."""

    dim_in: int
    dim_out: int
    kraus: np.ndarray
    _minimal: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        shape = (self.dim_out, self.dim_in)
        stacked = isinstance(self.kraus, np.ndarray) and self.kraus.ndim == 3
        for got in [self.kraus.shape[1:]] if stacked else map(np.shape, self.kraus):
            if got != shape:
                raise DimensionMismatch(f"Kraus shape {got}, expected {shape}")
        ks = np.array(self.kraus, dtype=complex, order="C").reshape(-1, *shape)
        nonzero = ks.any(axis=(1, 2)).tolist()  # a list: all() on it is cheap
        if not all(nonzero):
            ks = ks[nonzero]
        if not len(ks):
            ks = np.zeros((1, *shape), dtype=complex)
        ks.flags.writeable = False
        self.kraus = ks

    @cached_property
    def choi_matrix(self):
        V = _kraus_columns(self.kraus)
        return V @ V.conj().T

    @property
    def effect(self):
        """Σ K†K, the induced effect on the input space, formed per Kraus
        matrix and summed in Kraus order: one stacked product S†S would
        round differently, and effects reach documents (induced POVMs,
        witnesses)."""
        ks = self.kraus
        return (ks.conj().transpose(0, 2, 1) @ ks).sum(axis=0)

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim_in, self.dim_in):
            raise DimensionMismatch(f"state shape {rho.shape}, expected square of {self.dim_in}")
        ks = self.kraus
        return (ks @ rho @ ks.conj().transpose(0, 2, 1)).sum(axis=0)


def _kraus_columns(ks: np.ndarray) -> np.ndarray:
    """V with column k = vec(K_k) for a (k, dim_out, dim_in) Kraus stack,
    (dim_in·dim_out) × k, so that the Choi matrix is V V†."""
    return ks.transpose(2, 1, 0).reshape(ks.shape[1] * ks.shape[2], -1)


@dataclass(eq=False)
class State:
    """Density matrix wrapper."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)


@dataclass(eq=False)
class Instrument:
    """Outcome-labeled quantum operations summing to a trace-preserving map."""

    dim_in: int
    dim_out: int
    outcomes: list

    def __post_init__(self):
        checked = []
        for label, op in self.outcomes:
            if op.dim_in != self.dim_in or op.dim_out != self.dim_out:
                raise DimensionMismatch(
                    f"operation at {label!r} maps {op.dim_in}->{op.dim_out}, "
                    f"instrument maps {self.dim_in}->{self.dim_out}"
                )
            checked.append((str(label), op))
        self.outcomes = checked
        self._index = first_index(self.labels)

    @property
    def labels(self):
        return [label for label, _ in self.outcomes]

    @property
    def operations(self):
        return [op for _, op in self.outcomes]

    def operation(self, label):
        if label not in self._index:
            raise UnknownLabel(f"no outcome labeled {label!r}")
        return self.outcomes[self._index[label]][1]

    def __len__(self):
        return len(self.outcomes)


def _gram_gap(A: np.ndarray, B: np.ndarray) -> float:
    """‖AᵀĀ − BᵀB̄‖_F for row stacks A (k_a × D) and B (k_b × D): with the
    rows of each as the columns of W_a = Aᵀ and W_b = Bᵀ, the Frobenius
    norm of W_a W_a† − W_b W_b†.

    The kernel is picked by shape, n = k_a + k_b:
    - dense, forming both D × D Gram matrices, when n ≥ D/2;
    - joint thin QR, when n² ≤ 4D: [W_a | W_b] = QR turns the gap into
      ‖R_a R_a† − R_b R_b†‖_F;
    - projection in between: a thin QR of the smaller side only,
      W_b = Q R_b, then X = Q†W_a and Y = W_a − QX, so that Y ⟂ range Q
      and ‖Δ‖² = ‖XX† − R_bR_b†‖² + 2‖YX†‖² + ‖Y†Y‖², from GEMMs alone.
    The bounds follow timings of all three on one BLAS thread: at D = 128
    and 256 each kernel is the fastest over most of its region; at D ≤ 64
    the dense form is about as fast as the others or faster, and none of
    the three takes more than about 0.2 ms there.  No branch subtracts
    squared norms of W_a and W_b, which would cancel to about √eps of
    absolute error, above eq_abs.  Equal stacks are exactly 0 apart.
    """
    if A.shape == B.shape and np.array_equal(A, B):
        return 0.0
    if len(A) < len(B):
        A, B = B, A  # B is the smaller side
    n, D = len(A) + len(B), A.shape[1]
    if 2 * n >= D:
        return frob(A.T @ A.conj() - B.T @ B.conj())
    if n * n <= 4 * D:
        R = np.linalg.qr(np.concatenate([A, B]).T, mode="r")
        Ra, Rb = R[:, : len(A)], R[:, len(A) :]
        return frob(Ra @ Ra.conj().T - Rb @ Rb.conj().T)
    Q, Rb = np.linalg.qr(B.T)
    X = Q.conj().T @ A.T
    Y = A.T - Q @ X
    blocks = frob(X @ X.conj().T - Rb @ Rb.conj().T), frob(Y @ X.conj().T), frob(Y.conj().T @ Y)
    return float(np.sqrt(blocks[0] ** 2 + 2.0 * blocks[1] ** 2 + blocks[2] ** 2))


def _kraus_rows(ks: np.ndarray) -> np.ndarray:
    """The Kraus stack ks as rows, row k the row-major flattening of K_k:
    the Gram matrix of these rows is the Choi matrix with its input and
    output indices swapped in both factors, the same permutation for every
    operation, so Frobenius distances between Choi matrices are kept."""
    return ks.reshape(len(ks), ks.shape[1] * ks.shape[2])


def choi_distance(a: QuantumOperation, b: QuantumOperation) -> float:
    """‖Choi(a) − Choi(b)‖_F without forming either Choi matrix (_gram_gap
    of their Kraus rows)."""
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        raise DimensionMismatch("operations act between different spaces")
    return _gram_gap(_kraus_rows(a.kraus), _kraus_rows(b.kraus))


def instrument_distance(I: Instrument, J: Instrument) -> float:
    """Largest Choi distance between same-label operations."""
    if I.labels != J.labels:
        raise LabelMismatch("instruments carry different outcome labels")
    return max(
        (choi_distance(a, b) for a, b in zip(I.operations, J.operations)),
        default=0.0,
    )


def partial_trace_output(C, dim_in, dim_out):
    """Trace the output block out of a Choi matrix; gives (induced effect)ᵀ."""
    return np.einsum("iaja->ij", C.reshape(dim_in, dim_out, dim_in, dim_out))


def partial_trace_input(C, dim_in, dim_out):
    """Trace the input block out of a Choi matrix."""
    return np.einsum("iaib->ab", C.reshape(dim_in, dim_out, dim_in, dim_out))


def minimal_kraus(op: QuantumOperation, tol: Tolerance = DEFAULT_TOL) -> QuantumOperation:
    """Canonical Kraus form from a thin SVD of the stacked Kraus columns.

    With V = _kraus_columns(op) the Choi matrix is V V†, so its eigenpairs are
    (s², u) for the singular pairs of V, and s·u reshaped is a Kraus matrix.
    Keeps the ones with s² above tol.rank_rel times the largest, ordered
    decreasingly, so the number of matrices equals the Choi rank.  A
    vanishing operation collapses to a single zero matrix.  The SVD costs
    O(D k min(D, k)) for D = dim_in·dim_out and k Kraus matrices, where an
    eigendecomposition of the Choi matrix costs O(D³).  The form is computed
    once per operation and tolerance; later calls return the same object.
    """
    cached = op._minimal.get(tol)
    if cached is not None:
        return cached
    u, s, _ = np.linalg.svd(_kraus_columns(op.kraus), full_matrices=False)
    w = s * s
    kept = np.flatnonzero(w > tol.rank_rel * w[0]) if w[0] > 0.0 else []
    ks = (s[kept] * u[:, kept]).T.reshape(-1, op.dim_in, op.dim_out).transpose(0, 2, 1)
    op._minimal[tol] = QuantumOperation(op.dim_in, op.dim_out, ks)
    return op._minimal[tol]


def is_zero_operation(op: QuantumOperation, tol: Tolerance = DEFAULT_TOL) -> bool:
    """tr C = Σ‖K‖²_F, read from the Kraus matrices without forming C."""
    return np.vdot(op.kraus, op.kraus).real <= tol.eq_abs


def zero_operation(dim_in, dim_out) -> QuantumOperation:
    return QuantumOperation(dim_in, dim_out, [])


def routed(op: QuantumOperation, labels, label) -> Instrument:
    """Instrument with op at label and the zero operation at every other label."""
    zero = zero_operation(op.dim_in, op.dim_out)
    return Instrument(op.dim_in, op.dim_out, [(l, op if l == label else zero) for l in labels])


def _forwarding(dim, labels, label) -> Instrument:
    """Processor that passes the state on unchanged to label: the identity
    channel on dim, routed there."""
    return routed(QuantumOperation(dim, dim, [np.eye(dim)]), labels, label)


def complete_channel(ks, dim_in, dim_out) -> list:
    """ks topped up to a trace-preserving channel: |0⟩⟨v| is added for every
    eigenvector v of I - Σ K†K with eigenvalue above 1/2, which sends the
    subspace ks leave uncovered to the first basis state.

    Exact when Σ K†K is a projector, as for partial isometries; adds
    nothing when ks is already trace preserving.
    """
    leftover = np.eye(dim_in, dtype=complex)
    for K in ks:
        leftover -= K.conj().T @ K
    w, v = np.linalg.eigh(hermitize(leftover))
    out = list(ks)
    for k in np.nonzero(w > 0.5)[0]:
        K = np.zeros((dim_out, dim_in), dtype=complex)
        K[0] = v[:, k].conj()
        out.append(K)
    return out


def _closed_processor(kraus_by_label, dim_in, dim_out) -> Instrument:
    """Instrument with the given Kraus lists per label, made trace preserving
    by complete_channel: the Kraus matrices it adds for the flattened lists
    go to the first label, and a label with an empty list gets the zero
    operation, as QuantumOperation builds it."""
    flat = [K for ks in kraus_by_label.values() for K in ks]
    extra = complete_channel(flat, dim_in, dim_out)[len(flat):]
    outcomes = []
    for i, (label, ks) in enumerate(kraus_by_label.items()):
        ks = ks + extra if i == 0 else ks
        outcomes.append((label, QuantumOperation(dim_in, dim_out, ks)))
    return Instrument(dim_in, dim_out, outcomes)


def _pull_back(K, target: Instrument, weights, tol: Tolerance) -> Instrument:
    """Processor after the Kraus matrix K that realizes Σ_y w_y target_y:
    outcome y gets √w_y · L K⁺ for every Kraus matrix L of target at y, and
    no Kraus matrix when w_y = 0.

    Requires Σ_y w_y A^target(y) = K†K.  Then ker K ⊆ ker L wherever
    w_y > 0, so L K⁺ K = L, and the Kraus matrices sum to the projector onto
    the range of K, which _closed_processor completes exactly.
    """
    K_pinv = np.linalg.pinv(K, rcond=tol.rank_rel)  # numpy < 2 has no rtol
    kraus = {
        y: [np.sqrt(w) * (L @ K_pinv) for L in op.kraus] if w > 0 else []
        for (y, op), w in zip(target.outcomes, weights)
    }
    return _closed_processor(kraus, K.shape[0], target.dim_out)


def ground_state(dim) -> State:
    """The first basis state |0⟩⟨0|, prepared wherever any state will do."""
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = 1.0
    return State(dim, m)


def validate_state(s: State, tol: Tolerance = DEFAULT_TOL) -> ValidationReport:
    violations = []
    if s.matrix.shape != (s.dim, s.dim):
        violations.append(f"shape: expected {s.dim}x{s.dim}, got {s.matrix.shape}")
        return ValidationReport(False, violations)
    if not is_hermitian(s.matrix, tol):
        violations.append("hermiticity")
    elif np.linalg.eigvalsh(hermitize(s.matrix)).min() < -tol.eq_abs:
        violations.append("positivity")
    if abs(np.trace(s.matrix).real - 1.0) > tol.eq_abs:
        violations.append(f"trace: {np.trace(s.matrix).real!r} != 1")
    return ValidationReport(not violations, violations)


def validate_instrument(I: Instrument, tol: Tolerance = DEFAULT_TOL) -> ValidationReport:
    """Check labels, Kraus shapes, subnormalization per outcome, and that the
    induced effects sum to identity."""
    violations = []
    if I.dim_in <= 0 or I.dim_out <= 0:
        violations.append("dimension: must be positive integers")
        return ValidationReport(False, violations)
    if len(set(I.labels)) != len(I.labels):
        violations.append("labels: duplicate outcome labels")
    effects = np.array([op.effect for op in I.operations]).reshape(-1, I.dim_in, I.dim_in)
    # one stacked eigvalsh decomposes each Hermitian part as a call per
    # effect would
    hermitian = (effects + effects.conj().transpose(0, 2, 1)) / 2
    tops = np.linalg.eigvalsh(hermitian).max(axis=1, initial=0.0)
    for label, top in zip(I.labels, tops.tolist()):
        if top > 1.0 + tol.eq_abs:
            violations.append(f"subnormalization[{label}]: effect eigenvalue {top:.6f} > 1")
    total = np.zeros((I.dim_in, I.dim_in), dtype=complex)
    for E in effects:  # in order: a stacked sum may pair the terms up
        total += E
    gap = frob_dist(total, np.eye(I.dim_in))
    if gap > tol.eq_abs:
        violations.append(f"normalization: induced effects sum off identity by {gap:.3e}")
    return ValidationReport(not violations, violations)


def apply(I: Instrument, label, rho):
    """Unnormalized post-state and outcome probability for input state rho."""
    op = I.operation(label)
    out = op(_state_matrix(rho))
    return out, np.trace(out).real


def induced_povm(I: Instrument) -> Povm:
    return Povm(I.dim_in, [(label, op.effect) for label, op in I.outcomes])


def total_channel(I: Instrument) -> QuantumOperation:
    """Forget the outcome: one operation carrying every Kraus matrix."""
    ks = np.concatenate([op.kraus for op in I.operations])
    return QuantumOperation(I.dim_in, I.dim_out, ks)


def identity_instrument(dim: int) -> Instrument:
    return Instrument(dim, dim, [("0", QuantumOperation(dim, dim, [np.eye(dim)]))])


def luders(A: Povm) -> Instrument:
    """Instrument with Kraus √A(x) per outcome; output space equals input."""
    outcomes = [
        (label, QuantumOperation(A.dim, A.dim, [psd_sqrt(E)])) for label, E in A.outcomes
    ]
    return Instrument(A.dim, A.dim, outcomes)


def _state_matrix(xi):
    return xi.matrix if isinstance(xi, State) else np.asarray(xi, dtype=complex)


def _spectrum(M):
    """eigh of the Hermitian part of M.  An exact real multiple c·I, as the
    effects of a trivial POVM are, gets (c, …, c) and the standard basis
    without a decomposition: eigh returns exactly these there (unless it
    rescales a matrix of norm near the underflow threshold)."""
    d = len(M)
    if d and M[0, 0].imag == 0.0 and np.array_equal(M, M[0, 0] * np.eye(d)):
        return np.full(d, M[0, 0].real), np.eye(d, dtype=complex)
    return np.linalg.eigh(hermitize(M))


def measure_and_prepare(A: Povm, states, tol: Tolerance = DEFAULT_TOL) -> Instrument:
    """Instrument rho -> tr[A(x) rho] xi_x with rank-one Kraus matrices built
    from the spectral decompositions of each effect and each prepared state
    (_spectrum, which needs no decomposition for a multiple of I)."""
    mats = [_state_matrix(s) for s in states]
    if len(mats) != len(A):
        raise DimensionMismatch("one prepared state per outcome required")
    d_out = mats[0].shape[0]
    for m in mats:
        if m.shape != (d_out, d_out):
            raise DimensionMismatch("prepared states live on different spaces")
    outcomes = []
    for (label, E), xi in zip(A.outcomes, mats):
        q, phi = _spectrum(E)
        p, psi = _spectrum(xi)
        q_keep = q > tol.rank_rel * q.max(initial=0.0)
        p_keep = p > tol.rank_rel * p.max(initial=0.0)
        # √(p_i q_j) · ψ_i φ_j†, i major: the weight multiplies the formed
        # outer product, as np.outer followed by a scalar product rounds
        weights = np.sqrt(np.multiply.outer(p[p_keep], q[q_keep]))
        outer = psi[:, p_keep].T[:, None, :, None] * phi[:, q_keep].conj().T[None, :, None, :]
        ks = (weights[:, :, None, None] * outer).reshape(-1, d_out, A.dim)
        outcomes.append((label, QuantumOperation(A.dim, d_out, ks)))
    return Instrument(A.dim, d_out, outcomes)


def trash_and_prepare(p, states, dim_in: int, labels=None) -> Instrument:
    """Instrument rho -> tr[rho] p_x xi_x; ignores the input entirely.  p
    must form a probability distribution (check_weights)."""
    if len(p) != len(states):
        raise DimensionMismatch("one prepared state per probability required")
    return measure_and_prepare(trivial_povm(check_weights(p, states), dim_in, labels), states)


def pair_label(index, label) -> str:
    """Label for refined outcomes: branch index paired with the source label."""
    return f"({index},{label})"


def _minimal_branches(I: Instrument, tol: Tolerance):
    """(pair label, source label, Kraus matrix) for every minimal-Kraus branch
    of every nonvanishing operation, branch indices starting at 1."""
    out = []
    for label, op in I.outcomes:
        if is_zero_operation(op, tol):
            continue
        m = minimal_kraus(op, tol)
        for i, K in enumerate(m.kraus, start=1):
            out.append((pair_label(i, label), label, K))
    return out


def detailed_instrument(I: Instrument, tol: Tolerance = DEFAULT_TOL) -> Instrument:
    """Split every operation into its minimal Kraus branches, one outcome per
    branch; vanishing operations are dropped."""
    outcomes = [
        (pl, QuantumOperation(I.dim_in, I.dim_out, [K]))
        for pl, _, K in _minimal_branches(I, tol)
    ]
    return Instrument(I.dim_in, I.dim_out, outcomes)


def _post_processed_kraus(I: Instrument, processors, y) -> np.ndarray:
    """Kraus stack of J_y = Σ_x R^(x)_y ∘ I_x, the one product rule: for
    each x in I's outcome order, the products R_j K_i of the processor's
    Kraus matrices at y with I's at x, j major, from one stacked matmul,
    which rounds each product as R_j @ K_i does.  A zero processor
    operation holds one zero matrix (and only a zero operation holds a zero
    matrix) and is skipped, as all its products would be dropped; with
    none left the stack is empty."""
    d_out = processors[I.labels[0]].dim_out
    pairs = [(processors[x].operation(y).kraus, op.kraus) for x, op in I.outcomes]
    parts = [
        (R[:, None] @ K).reshape(-1, d_out, I.dim_in)
        for R, K in pairs
        if len(R) > 1 or np.count_nonzero(R)
    ]
    return np.concatenate(parts) if parts else np.zeros((0, d_out, I.dim_in), dtype=complex)


def compose_post_processing(I: Instrument, processors) -> Instrument:
    """Process each outcome x of I by its own instrument R^(x) and pool the
    classical results: J_y = Σ_x R^(x)_y ∘ I_x.

    processors maps each outcome label of I to an instrument from I's output
    space to a common target space; all processors must share one outcome
    label sequence, which becomes the composed instrument's.
    """
    ref = _check_processors(I, processors)
    outcomes = [
        (y, QuantumOperation(I.dim_in, ref.dim_out, _post_processed_kraus(I, processors, y)))
        for y in ref.labels
    ]
    return Instrument(I.dim_in, ref.dim_out, outcomes)


def _check_processors(I: Instrument, processors) -> Instrument:
    """The processor of I's first outcome, after checking that processors
    are keyed by I's labels, map I's output space to one common space and
    share one outcome label sequence."""
    if not len(I):
        raise OutcomeSetMismatch("instrument has no outcome to post-process")
    if set(processors) != set(I.labels):
        raise OutcomeSetMismatch("processors must be keyed exactly by the instrument's labels")
    ref = processors[I.labels[0]]
    for x in I.labels:
        R = processors[x]
        if R.dim_in != I.dim_out:
            raise DimensionMismatch(
                f"processor for {x!r} expects dimension {R.dim_in}, "
                f"instrument outputs {I.dim_out}"
            )
        if R.dim_out != ref.dim_out:
            raise DimensionMismatch("processors prepare on different spaces")
        if R.labels != ref.labels:
            raise OutcomeSetMismatch("processors must share one outcome label sequence")
    return ref


def relabel_instrument(I: Instrument, f) -> Instrument:
    """Merge outcomes along the label map f (a dict or callable on labels):
    the post-processing that forwards the state at x unchanged to f(x)."""
    images, targets = _label_images(I.labels, f)
    processors = {x: _forwarding(I.dim_out, targets, y) for x, y in zip(I.labels, images)}
    return compose_post_processing(I, processors)


def scale_operation(op: QuantumOperation, s: float) -> QuantumOperation:
    return QuantumOperation(op.dim_in, op.dim_out, np.sqrt(s) * op.kraus)


def check_weights(p, components) -> np.ndarray:
    """p as a float array, checked to hold one weight per component and to
    form a probability distribution within _STOCH_TOL, the slack of
    StochasticMatrix rows.  The comparisons are written so that NaN fails."""
    p = np.asarray(p, dtype=float)
    if len(p) != len(components):
        raise ValueError("one weight per component required")
    if not (
        np.isfinite(p).all()
        and p.min(initial=0.0) >= -_STOCH_TOL
        and abs(p.sum() - 1.0) <= _STOCH_TOL
    ):
        raise ValueError("weights must form a probability distribution")
    return p


def mix(instruments, p) -> Instrument:
    """Convex mixture Σ_i p_i I^i on the union of the outcome label sets:
    the tracked mixture with the component index forgotten."""
    merge = {pair_label(i, x): x for i, J in enumerate(instruments, start=1) for x in J.labels}
    return relabel_instrument(tracked_mix(instruments, p), merge)


def tracked_mix(instruments, p) -> Instrument:
    """Mixture that remembers which instrument fired: outcome (i,x) carries
    p_i times instrument i's operation at x, with i starting at 1."""
    p = check_weights(p, instruments)
    first = instruments[0]
    for J in instruments:
        if (J.dim_in, J.dim_out) != (first.dim_in, first.dim_out):
            raise DimensionMismatch("mixed instruments must share input and output spaces")
    outcomes = []
    for i, (w, J) in enumerate(zip(p, instruments), start=1):
        for label, op in J.outcomes:
            outcomes.append((pair_label(i, label), scale_operation(op, float(w))))
    return Instrument(first.dim_in, first.dim_out, outcomes)
