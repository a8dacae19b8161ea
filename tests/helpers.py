"""Shared constructions used across the test modules."""
import numpy as np

from instrorder import (
    Instrument,
    LabelMismatch,
    OutcomeSetMismatch,
    Povm,
    QuantumOperation,
    SimulationProgram,
    StochasticMatrix,
    compose_post_processing,
    luders,
    random_distribution,
    random_isometry,
    random_rank1_povm,
    random_unitary,
    zero_operation,
)
from instrorder.feasibility import solve_nonnegative
from instrorder.instrument import check_weights, ground_state, partial_trace_input
from instrorder.linalg import DEFAULT_TOL, frob_dist, hermitize
from instrorder.povm import _vec_hermitian, apply_post_processing, max_effect_distance


def basis_pvm(d):
    outcomes = []
    for i in range(d):
        E = np.zeros((d, d), dtype=complex)
        E[i, i] = 1.0
        outcomes.append((str(i), E))
    return Povm(d, outcomes)


def random_stochastic(row_labels, col_labels, seed):
    rows = [random_distribution(len(col_labels), seed + 7919 * i) for i in range(len(row_labels))]
    return StochasticMatrix(list(row_labels), list(col_labels), np.array(rows))


def projective_povm(d, sizes, seed):
    # PVM whose effects are projectors onto groups of columns of a random unitary
    assert sum(sizes) == d
    U = random_unitary(d, seed)
    outcomes = []
    start = 0
    for g, size in enumerate(sizes):
        block = U[:, start : start + size]
        outcomes.append((str(g), block @ block.conj().T))
        start += size
    return Povm(d, outcomes)


def random_identity_class_instrument(n, d_in, branch_counts, seed):
    # per outcome x: branch_counts[x] isometries with pairwise orthogonal ranges
    total = sum(branch_counts)
    weights = random_distribution(total, seed)
    d_out = d_in * max(branch_counts)
    outcomes = []
    pos = 0
    for x, k in enumerate(branch_counts):
        W = random_isometry(k * d_in, d_out, seed + 104729 * (x + 1))
        kraus = []
        for i in range(k):
            V = W[:, i * d_in : (i + 1) * d_in]
            kraus.append(np.sqrt(weights[pos]) * V)
            pos += 1
        outcomes.append((str(x), QuantumOperation(d_in, d_out, kraus)))
    return Instrument(d_in, d_out, outcomes)


def random_indecomposable(n, d, seed):
    return luders(random_rank1_povm(n, d, seed))


def split_and_dress(I, d_out, seed):
    """Post-process I into an indecomposable-preserving target.

    Each outcome x is split into one or two target labels with classical
    weights, and each branch is dressed by an isometry dim_out -> d_out.
    Returns (J, processors); J = compose_post_processing(I, processors).
    """
    targets = []
    plan = {}
    for k, x in enumerate(I.labels):
        n_split = 2 if (seed + k) % 2 == 0 else 1
        w = random_distribution(n_split, seed + 31 * k) if n_split > 1 else np.array([1.0])
        entry = []
        for j in range(n_split):
            label = f"{x}.{j}"
            V = random_isometry(I.dim_out, d_out, seed + 1009 * k + 101 * j)
            entry.append((label, w[j], V))
            targets.append(label)
        plan[x] = entry
    processors = {}
    for x in I.labels:
        outcomes = []
        covered = {lbl: (w, V) for lbl, w, V in plan[x]}
        for label in targets:
            if label in covered:
                w, V = covered[label]
                op = QuantumOperation(I.dim_out, d_out, [np.sqrt(w) * V])
            else:
                op = zero_operation(I.dim_out, d_out)
            outcomes.append((label, op))
        processors[x] = Instrument(I.dim_out, d_out, outcomes)
    return compose_post_processing(I, processors), processors


def weighted_rank1_pair(d, seed):
    """Two rank-1 POVMs on the same 2d rays whose weights make them inequivalent.

    First splits every basis-pair ray evenly, second with a 2/3 vs 4/3 skew on
    the second basis, so no effect of one is proportional to a merge of the
    other's classes.
    """
    U = random_unitary(d, seed)
    V = random_unitary(d, seed + 1)
    rays = [U[:, [i]] @ U[:, [i]].conj().T for i in range(d)]
    rays += [V[:, [i]] @ V[:, [i]].conj().T for i in range(d)]
    a = [(str(k), 0.5 * P) for k, P in enumerate(rays)]
    b = [(str(k), (1.0 / 3.0) * P) for k, P in enumerate(rays[:d])]
    b += [(str(k + d), (2.0 / 3.0) * P) for k, P in enumerate(rays[d:])]
    return Povm(d, a), Povm(d, b)


def simulate_direct(program: SimulationProgram) -> Instrument:
    """Same result as simulate, assembled outcome by outcome without the
    intermediate tracked mixture; used as a cross-check."""
    comps = program.components
    ref = next(iter(program.processors.values()))
    outcomes = []
    for y in ref.labels:
        ks = []
        for i, (w, comp) in enumerate(zip(program.probs, comps)):
            if w <= 0.0:
                continue
            root = np.sqrt(w)
            for x, op in comp.outcomes:
                R = program.processors[(i, x)]
                if R.labels != ref.labels:
                    raise OutcomeSetMismatch("processors must share one outcome label sequence")
                for Rk in R.operation(y).kraus:
                    for K in op.kraus:
                        prod = root * (Rk @ K)
                        if np.count_nonzero(prod):
                            ks.append(prod)
        if not ks:
            ks = [np.zeros((ref.dim_out, comps[0].dim_in), dtype=complex)]
        outcomes.append((y, QuantumOperation(comps[0].dim_in, ref.dim_out, ks)))
    return Instrument(comps[0].dim_in, ref.dim_out, outcomes)


def minimal_kraus_eigh(op: QuantumOperation, tol=DEFAULT_TOL) -> QuantumOperation:
    """Minimal Kraus form from the eigendecomposition of the Choi matrix, as
    minimal_kraus computed it before it took a thin SVD of the Kraus
    columns; uncached, used as the reference."""
    C = hermitize(op.choi_matrix)
    w, v = np.linalg.eigh(C)
    top = w.max(initial=0.0)
    ks = []
    if top > 0.0:
        for i in range(len(w) - 1, -1, -1):
            if w[i] <= tol.rank_rel * top:
                break
            K = np.sqrt(w[i]) * v[:, i].reshape(op.dim_in, op.dim_out).T
            ks.append(K)
    if not ks:
        ks = [np.zeros((op.dim_out, op.dim_in), dtype=complex)]
    return QuantumOperation(op.dim_in, op.dim_out, ks)


def find_post_processing_lp(A: Povm, B: Povm, tol=DEFAULT_TOL):
    """find_post_processing as it was before independent effects got the
    direct solve: the span projection, then always the phase-1 LP, then the
    replay check; used as the reference."""
    n_a, n_b = len(A), len(B)
    d2 = A.dim * A.dim
    vec_a = np.array([_vec_hermitian(E) for E in A.effects]).reshape(n_a, d2).T
    vec_b = np.array([_vec_hermitian(E) for E in B.effects]).reshape(n_b, d2).T
    U, s, _ = np.linalg.svd(vec_a, full_matrices=False)
    Q = U[:, s > s.max(initial=0.0) * max(vec_a.shape) * np.finfo(float).eps]
    coords_a = Q.T @ vec_a
    coords_b = Q.T @ vec_b
    if np.linalg.norm(vec_b - Q @ coords_b, axis=0).max(initial=0.0) > tol.eq_abs:
        return None
    r = Q.shape[1]
    blocks = max(n_b - 1, 0)
    M = np.zeros((blocks * r + n_a, n_a * n_b))  # nu[x, y] at column x * n_b + y
    rhs = np.ones(blocks * r + n_a)
    for y in range(blocks):
        M[y * r : (y + 1) * r, y::n_b] = coords_a
        rhs[y * r : (y + 1) * r] = coords_b[:, y]
    M[blocks * r :] = np.kron(np.eye(n_a), np.ones(n_b))
    scale = max(1.0, np.linalg.norm(vec_a, axis=0).max(initial=0.0))
    sol = solve_nonnegative(M, rhs, feas_tol=tol.eq_abs / scale)
    if sol is None:
        return None
    entries = sol.reshape(n_a, n_b)
    nu = StochasticMatrix(A.labels, B.labels, entries / entries.sum(axis=1, keepdims=True))
    if max_effect_distance(apply_post_processing(A, nu), B) > tol.eq_abs:
        return None
    return nu


def _pooled_images(labels, f):
    mapper = f.__getitem__ if isinstance(f, dict) else f
    for label in labels:
        try:
            yield label, str(mapper(label))
        except KeyError:
            raise LabelMismatch(f"label map not defined on {label!r}") from None


def relabel_pooled(A: Povm, f) -> Povm:
    """relabel as it was before it went through apply_post_processing: the
    effects of each target summed in source order; used as the reference."""
    merged = {}
    for (_, E), (_, target) in zip(A.outcomes, _pooled_images(A.labels, f)):
        merged[target] = merged.get(target, np.zeros((A.dim, A.dim), dtype=complex)) + E
    return Povm(A.dim, merged.items())


def relabel_instrument_pooled(I: Instrument, f) -> Instrument:
    """relabel_instrument as it was before it went through
    compose_post_processing: the Kraus matrices of each target pooled in
    source order; used as the reference."""
    merged = {}
    for (_, op), (_, target) in zip(I.outcomes, _pooled_images(I.labels, f)):
        merged.setdefault(target, []).extend(op.kraus)
    outcomes = [(t, QuantumOperation(I.dim_in, I.dim_out, ks)) for t, ks in merged.items()]
    return Instrument(I.dim_in, I.dim_out, outcomes)


def mix_pooled(instruments, p) -> Instrument:
    """mix as it was before it relabeled the tracked mixture: on the union
    of the label sets, in order of first appearance, the Kraus matrices
    √p_i K of every component with p_i > 0 that has the label; used as the
    reference."""
    p = check_weights(p, instruments)
    first = instruments[0]
    labels = list(dict.fromkeys(l for J in instruments for l in J.labels))
    outcomes = []
    for l in labels:
        ks = [
            K
            for w, J in zip(p, instruments)
            if w > 0.0 and l in J.labels
            for K in np.sqrt(w) * J.operation(l).kraus
        ]
        outcomes.append((l, QuantumOperation(first.dim_in, first.dim_out, ks)))
    return Instrument(first.dim_in, first.dim_out, outcomes)


def trash_and_prepare_choi(I: Instrument, tol=DEFAULT_TOL):
    """is_trash_and_prepare as it was before it read the measure-and-prepare
    certificate: each Choi matrix compared with I ⊗ (its output block);
    used as the reference."""
    d_in, d_out = I.dim_in, I.dim_out
    p = np.empty(len(I))
    states = []
    for i, (_, op) in enumerate(I.outcomes):
        C = op.choi_matrix
        block = partial_trace_input(C, d_in, d_out) / d_in
        weight = np.trace(block).real
        if weight <= tol.eq_abs:
            if frob_dist(C, np.zeros_like(C)) > tol.eq_abs:
                return None
            p[i] = max(weight, 0.0)
            states.append(ground_state(d_out).matrix)
            continue
        if frob_dist(C, np.kron(np.eye(d_in), block)) > tol.eq_abs:
            return None
        p[i] = weight
        states.append(hermitize(block) / weight)
    return p, states
