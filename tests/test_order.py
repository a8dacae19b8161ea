import numpy as np
import pytest

from instrorder import (
    DimensionMismatch,
    Instrument,
    InstrumentWitness,
    NotIndecomposable,
    NotMeasureAndPrepare,
    Povm,
    PreconditionViolated,
    QuantumOperation,
    SolverError,
    check_povm_necessary_condition,
    choi_distance,
    compose_post_processing,
    detailed_instrument,
    find_post_processing,
    identity_instrument,
    induced_povm,
    instrument_distance,
    instrument_equivalence,
    is_indecomposable_instrument,
    is_measure_and_prepare,
    is_trash_and_prepare,
    luders,
    luders_refinement_witness,
    measure_and_prepare,
    proportional_inequivalent_pair,
    random_distribution,
    random_instrument,
    random_povm,
    random_rank1_povm,
    random_state,
    random_unitary,
    relabel,
    relabel_instrument,
    replay_witness,
    trash_and_prepare,
    trivial_povm,
    validate_instrument,
    witness_detailed_to_original,
    witness_error,
    witness_identity_reversal,
    witness_indecomposable_equivalence,
    witness_map_post_processing,
    witness_original_to_detailed,
    witness_to_trash_and_prepare,
    zero_operation,
)
from instrorder.errors import LabelMismatch, OutcomeSetMismatch, UnknownLabel
from instrorder import classify, order
from instrorder.instrument import _gram_gap, routed
from instrorder.linalg import DEFAULT_TOL, frob, frob_dist
from instrorder.order import _checked, _witness

from helpers import (
    basis_pvm,
    random_identity_class_instrument,
    random_indecomposable,
    split_and_dress,
    witness_error_dense,
)

from test_instrument import depolarizing_channel


def test_detailed_to_original_on_indecomposable():
    L = luders(random_povm(2, 2, seed=0))
    w = witness_detailed_to_original(L)
    assert witness_error(detailed_instrument(L), w) < 1e-12
    replay = replay_witness(detailed_instrument(L), w)
    assert instrument_distance(replay, L) < 1e-12


def test_detailed_to_original_single_outcome_channel():
    I = depolarizing_channel()
    w = witness_detailed_to_original(I)
    D = detailed_instrument(I)
    assert len(D) == 4
    assert len(w.processors) == 4
    assert witness_error(D, w) < 1e-12


def test_detailed_to_original_random():
    for seed in range(15):
        I = random_instrument(2 + seed % 2, 2, 2 + seed % 2, 2, seed)
        w = witness_detailed_to_original(I)
        assert witness_error(detailed_instrument(I), w) < 1e-12


def test_original_to_detailed_on_indecomposable():
    L = luders(random_rank1_povm(3, 2, seed=1))
    w = witness_original_to_detailed(L)
    assert w is not None
    assert witness_error(L, w) < 1e-9


def test_original_to_detailed_on_orthogonal_branches():
    for seed in range(8):
        I = random_identity_class_instrument(2, 2, [2, 1], seed + 10)
        w = witness_original_to_detailed(I)
        assert w is not None
        assert witness_error(I, w) < 1e-9


def test_original_to_detailed_on_rank1_measure_and_prepare():
    A = random_rank1_povm(2, 2, seed=2)
    M = measure_and_prepare(A, [random_state(2, 20), random_state(2, 21)])
    w = witness_original_to_detailed(M)
    assert w is not None
    assert witness_error(M, w) < 1e-9


def test_original_to_detailed_absent_without_orthogonality():
    assert witness_original_to_detailed(depolarizing_channel()) is None


def test_identity_reversal_of_identity():
    w = witness_identity_reversal(identity_instrument(2))
    assert witness_error(identity_instrument(2), w) < 1e-12


def test_identity_reversal_of_unitary_channel():
    U = random_unitary(2, seed=3)
    I = Instrument(2, 2, [("0", QuantumOperation(2, 2, [U]))])
    w = witness_identity_reversal(I)
    assert witness_error(I, w) < 1e-12
    # the processor implements conjugation by U-dagger (Kraus defined up to phase)
    op = w.processors["0"].operations[0]
    ref = QuantumOperation(2, 2, [U.conj().T])
    assert choi_distance(op, ref) < 1e-9


def test_identity_reversal_of_random_unitary_instrument():
    p = random_distribution(3, seed=4)
    ops = []
    for k in range(3):
        U = random_unitary(2, seed=5 + k)
        ops.append((str(k), QuantumOperation(2, 2, [np.sqrt(p[k]) * U])))
    I = Instrument(2, 2, ops)
    w = witness_identity_reversal(I)
    assert witness_error(I, w) < 1e-9
    replay = replay_witness(I, w)
    assert instrument_distance(replay, identity_instrument(2)) < 1e-9


def test_identity_reversal_with_expanding_isometries():
    for seed in range(8):
        I = random_identity_class_instrument(2, 2, [2, 1], seed + 40)
        w = witness_identity_reversal(I)
        assert witness_error(I, w) < 1e-9


def test_identity_reversal_requires_certificate():
    with pytest.raises(PreconditionViolated):
        witness_identity_reversal(luders(basis_pvm(2)))


def test_trash_witness_from_identity():
    p = [0.5, 0.5]
    states = [random_state(2, 8), random_state(2, 9)]
    w = witness_to_trash_and_prepare(identity_instrument(2), p, states)
    assert witness_error(identity_instrument(2), w) < 1e-12


def test_trash_witness_from_random_instrument():
    for seed in range(10):
        I = random_instrument(2, 2, 3, 2, seed + 100)
        p = random_distribution(2, seed + 200)
        states = [random_state(2, seed + 300), random_state(2, seed + 301)]
        w = witness_to_trash_and_prepare(I, p, states)
        assert witness_error(I, w) < 1e-9
        replay = replay_witness(I, w)
        target = trash_and_prepare(p, states, dim_in=2, labels=list(replay.labels))
        assert instrument_distance(replay, target) < 1e-9


def test_trash_witness_from_luders():
    L = luders(basis_pvm(2))
    p = [0.25, 0.75]
    states = [random_state(2, 10), random_state(2, 11)]
    w = witness_to_trash_and_prepare(L, p, states)
    assert witness_error(L, w) < 1e-12


def test_equivalence_of_relabeled_luders():
    A = random_rank1_povm(3, 2, seed=12)
    L = luders(A)
    Lr = relabel_instrument(L, {x: f"r{x}" for x in L.labels})
    w = witness_indecomposable_equivalence(L, Lr)
    assert w is not None
    assert witness_error(L, w.forward) < 1e-9
    assert witness_error(Lr, w.backward) < 1e-9


def test_equivalence_rejects_weight_mismatched_luders():
    A, B = proportional_inequivalent_pair()
    assert witness_indecomposable_equivalence(luders(A), luders(B)) is None


def test_equivalence_luders_vs_detailed_measure_and_prepare():
    A = random_rank1_povm(2, 2, seed=13)
    M = measure_and_prepare(A, [random_state(2, 30), random_state(2, 31)])
    D = detailed_instrument(M)
    w = witness_indecomposable_equivalence(luders(A), D)
    assert w is not None
    assert witness_error(luders(A), w.forward) < 1e-9
    assert witness_error(D, w.backward) < 1e-9


def test_equivalence_handles_unequal_output_dimensions():
    A = random_rank1_povm(2, 2, seed=14)
    L = luders(A)
    J, _ = split_and_dress(L, 4, seed=15)
    assert is_indecomposable_instrument(J)
    for first, second in ((L, J), (J, L)):
        w = witness_indecomposable_equivalence(first, second)
        assert w is not None
        assert witness_error(first, w.forward) < 1e-9
        assert witness_error(second, w.backward) < 1e-9


def test_witness_error_counts_processor_normalization():
    # the processor at "0" carries {P, 2Q} with Q = 1 - P: the replay
    # rebuilds I exactly (Q kills the range of P), yet Σ K†K = P + 4Q
    I = luders(basis_pvm(2))
    P, Q = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    bad = Instrument(2, 2, [("0", QuantumOperation(2, 2, [P, 2 * Q])), ("1", zero_operation(2, 2))])
    good = Instrument(2, 2, [("0", zero_operation(2, 2)), ("1", QuantumOperation(2, 2, [np.eye(2)]))])
    processors = {"0": bad, "1": good}
    assert not validate_instrument(bad).ok
    w = _witness(I, processors, I)
    assert instrument_distance(replay_witness(I, w), I) == 0.0
    assert witness_error(I, w) == pytest.approx(3.0)
    with pytest.raises(SolverError):
        _checked(I, processors, I, DEFAULT_TOL)


def test_nan_witness_error_is_rejected():
    # a NaN target Kraus matrix after a finite one: max() alone would keep the
    # finite distance, and `err > eq_abs` is False for NaN
    I = random_instrument(2, 2, 2, 2, seed=5)
    D = detailed_instrument(I)
    w = witness_detailed_to_original(I)
    assert witness_error(D, w) < 1e-12
    last = w.target_labels[-1]
    outcomes = I.outcomes[:-1] + [(last, QuantumOperation(2, 2, [np.full((2, 2), np.nan)]))]
    w.target = Instrument(2, 2, outcomes)
    assert np.isnan(witness_error(D, w))
    with pytest.raises(SolverError, match="missed its target by nan"):
        _checked(D, w.processors, Instrument(2, 2, outcomes), DEFAULT_TOL)


def test_replay_of_a_witness_built_in_memory_forms_no_choi_matrix(monkeypatch):
    L = luders(random_povm(3, 4, seed=70))
    D = detailed_instrument(L)
    U = Instrument(4, 4, [("0", QuantumOperation(4, 4, [random_unitary(4, seed=71)]))])
    M = measure_and_prepare(random_povm(3, 2, seed=72), [random_state(2, 73 + i) for i in range(3)])
    T = trash_and_prepare([0.25, 0.75], [random_state(2, 76), random_state(2, 77)], dim_in=2)
    eq = witness_indecomposable_equivalence(L, L)
    cases = [
        (D, witness_detailed_to_original(L)),
        (L, witness_original_to_detailed(L)),
        (U, witness_identity_reversal(U)),
        (L, witness_to_trash_and_prepare(L, [1.0], [random_state(3, 78)])),
        (L, eq.forward),
        (L, eq.backward),
        (M, witness_map_post_processing(M, T)),
    ]

    def formed(op):
        raise AssertionError("a Choi matrix was formed")

    # a data descriptor on the class shadows values cached on instances
    monkeypatch.setattr(QuantumOperation, "choi_matrix", property(formed))
    for source, w in cases:
        assert witness_error(source, w) < 1e-9
        assert _checked(source, w.processors, w.target, DEFAULT_TOL).target is w.target


def test_pull_back_processors_are_instruments():
    # witness_error holds processors to trace preservation as well; this
    # checks the closing rule of the pull-back against validate_instrument
    A = random_rank1_povm(2, 2, seed=16)
    L = luders(A)
    Lr = relabel_instrument(L, {x: f"r{x}" for x in L.labels})
    J, _ = split_and_dress(L, 4, seed=15)
    processors = []
    for first, second in ((L, Lr), (L, J), (J, L)):
        w = witness_indecomposable_equivalence(first, second)
        assert w is not None
        processors += list(w.forward.processors.values())
        processors += list(w.backward.processors.values())
    for I in (L, J, random_instrument(3, 2, 2, 2, 16)):
        processors += list(luders_refinement_witness(I).values())
    for R in processors:
        assert validate_instrument(R).ok


def test_equivalence_requires_indecomposable_inputs():
    with pytest.raises(NotIndecomposable):
        witness_indecomposable_equivalence(depolarizing_channel(), luders(basis_pvm(2)))


def test_equivalence_requires_matching_input_dims():
    with pytest.raises(DimensionMismatch):
        witness_indecomposable_equivalence(luders(basis_pvm(2)), luders(basis_pvm(3)))


def test_map_witness_identity_pair():
    A = random_povm(2, 2, seed=17)
    M = measure_and_prepare(A, [random_state(2, 40), random_state(2, 41)])
    w = witness_map_post_processing(M, M)
    assert w is not None
    assert witness_error(M, w) < 1e-9


def test_map_witness_to_trivial_target():
    A = random_povm(3, 2, seed=18)
    M = measure_and_prepare(A, [random_state(2, 50 + i) for i in range(3)])
    p = random_distribution(2, seed=19)
    T = trash_and_prepare(p, [random_state(2, 60), random_state(2, 61)], dim_in=2)
    w = witness_map_post_processing(M, T)
    assert w is not None
    assert witness_error(M, w) < 1e-9


@pytest.mark.parametrize(
    "d, n_a, n_b, seed, kind",
    [(4, 8, 4, 90, "coarse"), (3, 5, 2, 91, "relabel"), (2, 6, 3, 92, "coarse")],
)
def test_map_witness_processors_weight_one_prepare_instrument(d, n_a, n_b, seed, kind):
    # each processor is J's prepare instrument with its operations weighted
    # by row x of μ; it must be the processor trash_and_prepare(μ_x, …) builds
    A = random_povm(n_a, d, seed)
    if kind == "relabel":  # a deterministic μ: zero weights in every row
        B = relabel(A, lambda label: int(label) % n_b)
    else:
        nu = np.array([random_distribution(n_b, seed=seed + 1 + x) for x in range(n_a)])
        B = Povm(d, [(str(y), E) for y, E in enumerate(np.einsum("xy,xij->yij", nu, np.array(A.effects)))])
    I = measure_and_prepare(A, [random_state(d, seed + 20 + x) for x in range(n_a)])
    J = measure_and_prepare(B, [random_state(d, seed + 40 + y) for y in range(n_b)])
    w = witness_map_post_processing(I, J)
    assert w is not None
    assert witness_error(I, w) <= DEFAULT_TOL.eq_abs
    mu = find_post_processing(induced_povm(I), induced_povm(J))
    states = is_measure_and_prepare(J).states
    zeros = 0
    for x, row in zip(I.labels, mu.entries):
        ref = trash_and_prepare(row, states, dim_in=I.dim_out, labels=J.labels)
        assert w.processors[x].labels == ref.labels
        for y, op in ref.outcomes:
            got = w.processors[x].operation(y)
            assert frob_dist(got.choi_matrix, op.choi_matrix) <= 1e-14
            if row[J.labels.index(y)] == 0.0:
                zeros += 1
                assert not got.kraus.any()
    if kind == "relabel":
        assert zeros > 0


def test_map_witness_rejects_inequivalent_povms():
    A, B = proportional_inequivalent_pair()
    MA = measure_and_prepare(A, [random_state(2, 70 + i) for i in range(4)])
    MB = measure_and_prepare(B, [random_state(2, 80 + i) for i in range(4)])
    assert witness_map_post_processing(MA, MB) is None
    assert witness_map_post_processing(MB, MA) is None


def test_map_witness_requires_measure_and_prepare():
    with pytest.raises(NotMeasureAndPrepare):
        witness_map_post_processing(identity_instrument(2), identity_instrument(2))


def test_necessary_condition_after_construction():
    for seed in range(10):
        I = random_indecomposable(2, 2, seed + 400)
        J, processors = split_and_dress(I, 3, seed + 500)
        assert is_indecomposable_instrument(J)
        assert instrument_distance(J, compose_post_processing(I, processors)) == 0.0
        assert check_povm_necessary_condition(I, J)


def test_necessary_condition_reflexive():
    L = luders(random_povm(2, 2, seed=20))
    assert check_povm_necessary_condition(L, L)


def test_necessary_condition_falsifies():
    # the target only shakes dice, so its induced POVM cannot recover the
    # sharp statistics of the source and the necessary condition fails
    I = luders(basis_pvm(2))
    J = luders(trivial_povm(random_distribution(2, seed=21), 2))
    assert not check_povm_necessary_condition(I, J)
    # and indeed no implemented construction produces a witness
    assert witness_indecomposable_equivalence(I, J) is None


def test_necessary_condition_requires_indecomposable_target():
    with pytest.raises(NotIndecomposable):
        check_povm_necessary_condition(identity_instrument(2), depolarizing_channel())


def test_witnesses_declare_targets_they_reproduce():
    # universal soundness: declared target Choi fingerprints match the replay
    for seed in range(10):
        I = random_instrument(2, 2, 2, 2, seed + 600)
        w = witness_detailed_to_original(I)
        D = detailed_instrument(I)
        replay = replay_witness(D, w)
        assert replay.labels == w.target_labels
        for x in w.target_labels:
            assert frob_dist(w.target.operation(x).choi_matrix, replay.operation(x).choi_matrix) < 1e-9


def test_replayed_witnesses_stay_valid_instruments():
    for seed in range(10):
        I = random_instrument(2, 2, 2, 1, seed + 700)
        p = random_distribution(2, seed + 800)
        states = [random_state(2, seed + 900), random_state(2, seed + 901)]
        w = witness_to_trash_and_prepare(I, p, states)
        assert validate_instrument(replay_witness(I, w)).ok


def test_trash_replay_classifies_trash():
    # replaying witnesses from a trash-and-prepare source stays in the class
    for seed in range(8):
        p = random_distribution(2, seed)
        T = trash_and_prepare(p, [random_state(2, seed + 10), random_state(2, seed + 11)], dim_in=2)
        q = random_distribution(3, seed + 20)
        target_states = [random_state(2, seed + 30 + i) for i in range(3)]
        w = witness_to_trash_and_prepare(T, q, target_states)
        assert is_trash_and_prepare(replay_witness(T, w)) is not None


def test_successful_witness_implies_necessary_condition():
    for seed in range(8):
        I = random_indecomposable(2, 2, seed + 50)
        J, _ = split_and_dress(I, 2, seed + 60)
        w = witness_indecomposable_equivalence(I, J)
        assert w is not None
        assert check_povm_necessary_condition(I, J)


def _small_eigenvalue_instrument(ev):
    A = np.diag([0.5, ev, 0.3]).astype(complex)
    V = random_unitary(3, 5)
    return Instrument(3, 3, [
        ("a", QuantumOperation(3, 3, [V @ np.sqrt(A)])),
        ("b", QuantumOperation(3, 3, [np.sqrt(np.eye(3) - A)])),
    ])


def test_luders_refinement_witness_raises_when_luders_loses_a_direction():
    # psd_sqrt zeroes eigenvalues below 1e-13 × max, so the Lüders Kraus
    # matrix at "a" drops the 1e-14 direction and no processor can rebuild
    # I there: the replay misses by 1.26e-7
    with pytest.raises(SolverError, match="missed its target by 1.26"):
        luders_refinement_witness(_small_eigenvalue_instrument(1e-14))


@pytest.mark.parametrize("ev", [1e-12, 1e-10, 1e-6])
def test_luders_refinement_processors_are_instruments(ev):
    # the pseudo-inverse of √A(x) is taken from the SVD of I's Kraus
    # matrices: from the Lüders eigendecomposition the processor at "a"
    # would miss trace preservation by 6e-5 at ev = 1e-12
    I = _small_eigenvalue_instrument(ev)
    phi = luders_refinement_witness(I)
    assert all(validate_instrument(R).ok for R in phi.values())
    assert instrument_distance(compose_post_processing(luders(induced_povm(I)), phi), I) < 1e-9


def _pure_state(d, seed):
    v = random_unitary(d, seed)[:, 0]
    return np.outer(v, v.conj())


def _witnesses_of_every_constructor():
    """(source, witness) pairs from every witness constructor; their
    shapes reach each of the three kernels of instrument._gram_gap."""
    I = random_instrument(3, 3, 3, 2, seed=80)
    L = luders(random_povm(3, 4, seed=81))
    Lr = relabel_instrument(L, {x: f"r{x}" for x in L.labels})
    S = random_identity_class_instrument(2, 2, [2, 1], seed=82)
    A = random_povm(6, 3, seed=83)
    M = measure_and_prepare(A, [random_state(3, 84 + x) for x in range(6)])
    N = measure_and_prepare(relabel(A, lambda label: int(label) % 3), [random_state(3, 90 + y) for y in range(3)])
    C = random_instrument(1, 8, 8, 2, seed=93)  # D = 64: 16 replay columns against 8
    R = random_instrument(3, 16, 16, 2, seed=94)  # D = 256: 96 replay columns against 16
    eq = witness_indecomposable_equivalence(L, Lr)
    Li = luders(induced_povm(I))
    return [
        (detailed_instrument(I), witness_detailed_to_original(I)),
        (L, witness_original_to_detailed(L)),
        (S, witness_identity_reversal(S)),
        (I, witness_to_trash_and_prepare(I, [0.3, 0.7], [random_state(3, 95), random_state(3, 96)])),
        (C, witness_to_trash_and_prepare(C, [1.0], [_pure_state(8, 97)])),
        (R, witness_to_trash_and_prepare(R, [0.4, 0.6], [_pure_state(16, 98), _pure_state(16, 99)])),
        (L, eq.forward),
        (Lr, eq.backward),
        (M, witness_map_post_processing(M, N)),
        (Li, _witness(Li, luders_refinement_witness(I), I)),
    ]


_CASES = _witnesses_of_every_constructor()


def _kernel(k_a, k_b, D):
    """The kernel _gram_gap documents for row stacks of these shapes."""
    n = k_a + k_b
    return "dense" if 2 * n >= D else "joint" if n * n <= 4 * D else "projection"


def _stated(w):
    """The witness as a version-1 document holds it: the target's Choi
    matrices in place of its Kraus form."""
    return InstrumentWitness(w.source_labels, w.processors, {y: op.choi_matrix for y, op in w.target.outcomes})


def test_witness_error_matches_the_dense_replay_on_every_constructor(monkeypatch):
    shapes = []
    gap = order._gram_gap
    monkeypatch.setattr(order, "_gram_gap", lambda A, B: shapes.append((len(A), len(B), A.shape[1])) or gap(A, B))
    for source, w in _CASES:
        ref = witness_error_dense(source, w)
        assert ref <= DEFAULT_TOL.eq_abs
        assert abs(witness_error(source, w) - ref) <= 1e-13
        assert abs(witness_error(source, _stated(w)) - ref) <= 1e-13
    assert {_kernel(*shape) for shape in shapes} == {"dense", "joint", "projection"}


@pytest.mark.parametrize("index", range(len(_CASES)))
def test_witness_error_matches_the_dense_replay_on_broken_witnesses(index):
    source, w = _CASES[index]
    x = source.labels[0]
    R = w.processors[x]
    y = next(y for y, op in R.outcomes if op.kraus.any())
    dropped = Instrument(R.dim_in, R.dim_out, [(l, zero_operation(R.dim_in, R.dim_out) if l == y else op) for l, op in R.outcomes])
    rng = np.random.default_rng(index)
    t = w.target
    y0, op0 = t.outcomes[0]
    E = rng.normal(size=op0.kraus.shape) + 1j * rng.normal(size=op0.kraus.shape)
    moved = QuantumOperation(t.dim_in, t.dim_out, op0.kraus + 10 * DEFAULT_TOL.eq_abs * E / frob(E))
    broken = [
        _witness(source, {**w.processors, x: dropped}, t),
        _witness(source, w.processors, Instrument(t.dim_in, t.dim_out, [(y0, moved)] + t.outcomes[1:])),
    ]
    for b in broken:
        ref = witness_error_dense(source, b)
        assert ref > DEFAULT_TOL.eq_abs
        assert abs(witness_error(source, b) - ref) <= 1e-13 * max(1.0, ref)
        assert abs(witness_error(source, _stated(b)) - ref) <= 1e-13 * max(1.0, ref)


def _qr_columns(monkeypatch, call):
    """Column counts of the thin QRs call takes."""
    columns = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda M, *a, **k: columns.append(M.shape[1]) or qr(M, *a, **k))
    try:
        return call(), columns
    finally:
        monkeypatch.setattr(np.linalg, "qr", qr)


@pytest.mark.parametrize(
    "d, k_a, k_b, kernel, qr_columns",
    [
        (4, 6, 2, "dense", []),
        (4, 1, 1, "joint", [2]),
        (8, 12, 4, "joint", [16]),
        (8, 24, 3, "projection", [3]),
        (8, 3, 24, "projection", [3]),
        (16, 96, 16, "projection", [16]),
        (8, 20, 0, "projection", [0]),
        (8, 2, 0, "joint", [2]),
        (8, 40, 24, "dense", []),
    ],
)
@pytest.mark.parametrize("rank_deficient", [False, True])
def test_gram_gap_kernels_match_the_dense_choi_distance(monkeypatch, d, k_a, k_b, kernel, qr_columns, rank_deficient):
    rng = np.random.default_rng(d * 1000 + k_a * 10 + k_b)
    gauss = lambda k: rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
    a, b = gauss(k_a), gauss(k_b)
    if rank_deficient and k_b:  # every Kraus matrix of b a multiple of the first
        b = rng.normal(size=(k_b, 1, 1)) * b[:1]
    assert _kernel(k_a, k_b, d * d) == kernel
    dense = frob_dist(QuantumOperation(d, d, a).choi_matrix, QuantumOperation(d, d, b).choi_matrix)
    got, columns = _qr_columns(monkeypatch, lambda: _gram_gap(a.reshape(k_a, d * d), b.reshape(k_b, d * d)))
    assert columns == qr_columns
    assert abs(got - dense) <= 1e-13 * max(1.0, dense)


@pytest.mark.parametrize("d, k_a, k_b", [(4, 6, 2), (8, 12, 4), (8, 24, 3), (16, 96, 16)])
@pytest.mark.parametrize("side", ["larger", "smaller"])
def test_gram_gap_of_a_nan_entry_is_nan_in_every_kernel(d, k_a, k_b, side):
    rng = np.random.default_rng(d + k_a)
    a = rng.normal(size=(k_a, d * d)) + 1j * rng.normal(size=(k_a, d * d))
    b = rng.normal(size=(k_b, d * d)) + 1j * rng.normal(size=(k_b, d * d))
    (a if side == "larger" else b)[0, 1] = np.nan
    assert np.isnan(_gram_gap(a, b)) and np.isnan(_gram_gap(b, a))


def test_witness_error_on_a_target_outcome_no_processor_reaches():
    # routed processors: no source outcome reaches "c", whose replay is the
    # zero operation; a target that is zero there is met, any other is not
    I = random_instrument(2, 3, 3, 2, seed=100)
    V = QuantumOperation(3, 3, [random_unitary(3, seed=101)])
    to = {"0": "a", "1": "b"}
    processors = {x: routed(V, ["a", "b", "c"], to[x]) for x in I.labels}
    J = compose_post_processing(I, processors)
    assert not J.operation("c").kraus.any()
    K = QuantumOperation(3, 3, [0.1 * random_unitary(3, seed=102)])
    for c, expected in ((J.operation("c"), 0.0), (K, frob(K.choi_matrix))):
        target = Instrument(3, 3, J.outcomes[:2] + [("c", c)])
        w = _witness(I, processors, target)
        assert witness_error(I, w) == pytest.approx(expected, abs=1e-14)
        assert witness_error(I, w) == pytest.approx(witness_error_dense(I, w), abs=1e-14)
        assert witness_error(I, _stated(w)) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("where", ["source", "processor"])
def test_witness_error_of_nan_kraus_matrices_is_nan(where):
    source, w = _CASES[0]
    N = np.full((source.dim_out, source.dim_in), np.nan)
    if where == "source":
        x, op = source.outcomes[0]
        source = Instrument(source.dim_in, source.dim_out, [(x, QuantumOperation(op.dim_in, op.dim_out, [N]))] + source.outcomes[1:])
    else:
        x = source.labels[0]
        R = w.processors[x]
        y, op = R.outcomes[0]
        nan_op = QuantumOperation(R.dim_in, R.dim_out, [np.full((R.dim_out, R.dim_in), np.nan)])
        w = _witness(source, {**w.processors, x: Instrument(R.dim_in, R.dim_out, [(y, nan_op)] + R.outcomes[1:])}, w.target)
    assert np.isnan(witness_error(source, w))
    assert np.isnan(witness_error(source, _stated(w)))
    with pytest.raises(SolverError, match="missed its target by nan"):
        _checked(source, w.processors, w.target, DEFAULT_TOL)


def _mismatched(source, w):
    """(expected exception, source, witness) for each way a witness can fail
    to fit its source or state its target."""
    x0 = source.labels[0]
    R = w.processors[x0]
    t = w.target
    wider = Instrument(R.dim_in + 1, R.dim_out, [(l, zero_operation(R.dim_in + 1, R.dim_out)) for l in R.labels])
    taller = Instrument(R.dim_in, R.dim_out + 1, [(l, zero_operation(R.dim_in, R.dim_out + 1)) for l in R.labels])
    renamed = Instrument(R.dim_in, R.dim_out, [(f"{l}'", op) for l, op in R.outcomes])
    relabeled = Instrument(source.dim_in, source.dim_out, [(f"{l}'", op) for l, op in source.outcomes])
    far = Instrument(t.dim_in, t.dim_out + 1, [(y, zero_operation(t.dim_in, t.dim_out + 1)) for y in t.labels])
    unknown = Instrument(t.dim_in, t.dim_out, t.outcomes + [("unknown", zero_operation(t.dim_in, t.dim_out))])
    return [
        (LabelMismatch, relabeled, w),
        (OutcomeSetMismatch, source, _witness(source, {x: R for x, R in w.processors.items() if x != x0}, t)),
        (OutcomeSetMismatch, Instrument(source.dim_in, source.dim_out, []), InstrumentWitness([], {}, t)),
        (DimensionMismatch, source, _witness(source, {**w.processors, x0: wider}, t)),
        (DimensionMismatch, source, _witness(source, {**w.processors, x0: taller}, t)),
        (OutcomeSetMismatch, source, _witness(source, {**w.processors, x0: renamed}, t)),
        (DimensionMismatch, source, _witness(source, w.processors, far)),
        (UnknownLabel, source, _witness(source, w.processors, unknown)),
    ]


@pytest.mark.parametrize("case", range(8))
def test_witness_error_raises_what_the_replay_raises(case):
    source, w = _CASES[1]  # two processors, so that one can be dropped or changed
    exc, src, bad = _mismatched(source, w)[case]
    with pytest.raises(exc):
        witness_error(src, bad)
    if bad.target is w.target:  # the replay never reads the target
        with pytest.raises(exc):
            replay_witness(src, bad)


def test_map_witness_diagonalizes_only_the_prepared_states(monkeypatch):
    # d = 8, 8 -> 4: J's prepare instrument is trash_and_prepare of its 4
    # states, whose effects 1·I need no eigh (decomposing them too makes 8)
    A = random_povm(8, 8, seed=110)
    nu = np.array([random_distribution(4, seed=111 + x) for x in range(8)])
    B = Povm(8, [(str(y), E) for y, E in enumerate(np.einsum("xy,xij->yij", nu, np.array(A.effects)))])
    I = measure_and_prepare(A, [_pure_state(8, 120 + x) for x in range(8)])
    J = measure_and_prepare(B, [_pure_state(8, 130 + y) for y in range(4)])
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M, *a, **k: calls.append(M.shape) or eigh(M, *a, **k))
    w = witness_map_post_processing(I, J)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert w is not None and witness_error(I, w) <= DEFAULT_TOL.eq_abs
    assert len(calls) == 4


def test_identity_reversal_checks_the_certificate_once(monkeypatch):
    # identity_class_certificate checks the certificate it builds, and the
    # witness does not check it again
    I = random_identity_class_instrument(2, 3, [2, 1], seed=44)
    calls = []
    original = classify.certificate_error
    monkeypatch.setattr(classify, "certificate_error", lambda *args: calls.append(args) or original(*args))
    assert witness_error(I, witness_identity_reversal(I)) <= DEFAULT_TOL.eq_abs
    assert len(calls) == 1


@pytest.mark.parametrize("p", [[0.5, 0.7], [0.5, np.nan], [1.5, -0.5]], ids=["sum", "nan", "negative"])
def test_trash_and_prepare_rejects_weights_off_the_simplex(p):
    states = [random_state(2, 90), random_state(2, 91)]
    with pytest.raises(ValueError, match="probability distribution"):
        trash_and_prepare(p, states, dim_in=2)
    with pytest.raises(ValueError, match="probability distribution"):
        witness_to_trash_and_prepare(identity_instrument(2), p, states)


def test_trash_and_prepare_checks_the_length_first():
    with pytest.raises(DimensionMismatch):
        trash_and_prepare([0.5, 0.7], [random_state(2, 92)], dim_in=2)


def _same_witness(a, b):
    assert (a.source_labels, a.target_labels) == (b.source_labels, b.target_labels)
    assert a.processors.keys() == b.processors.keys()
    for x, R in a.processors.items():
        assert R.labels == b.processors[x].labels
        for op, ref in zip(R.operations, b.processors[x].operations):
            assert np.array_equal(op.kraus, ref.kraus)


def _measure_and_prepare_pairs():
    A = random_povm(3, 2, seed=18)
    M = measure_and_prepare(A, [random_state(2, 50 + i) for i in range(3)])
    T = trash_and_prepare([0.25, 0.75], [random_state(2, 60), random_state(2, 61)], dim_in=2)
    B, C = proportional_inequivalent_pair()
    MB = measure_and_prepare(B, [random_state(2, 70 + i) for i in range(len(B))])
    MC = measure_and_prepare(C, [random_state(2, 80 + i) for i in range(len(C))])
    return {
        "both": (M, M, True, True),
        "forward only": (M, T, True, False),
        "backward only": (T, M, False, True),
        "neither": (MB, MC, False, False),
    }


@pytest.mark.parametrize("case", ["both", "forward only", "backward only", "neither"])
def test_instrument_equivalence_measure_and_prepare(case, monkeypatch):
    I, J, has_forward, has_backward = _measure_and_prepare_pairs()[case]
    assert not (is_indecomposable_instrument(I) and is_indecomposable_instrument(J))
    calls = []
    original = classify.is_measure_and_prepare
    monkeypatch.setattr(order, "is_measure_and_prepare", lambda inst, tol: calls.append(inst) or original(inst, tol))
    method, forward, backward = instrument_equivalence(I, J)
    assert method == "measure_and_prepare"
    assert calls == [I, J]
    monkeypatch.undo()
    for source, w, present, ref in (
        (I, forward, has_forward, witness_map_post_processing(I, J)),
        (J, backward, has_backward, witness_map_post_processing(J, I)),
    ):
        assert (w is not None) is present
        assert (ref is not None) is present
        if present:
            assert witness_error(source, w) <= DEFAULT_TOL.eq_abs
            _same_witness(w, ref)


def test_instrument_equivalence_indecomposable():
    L = luders(random_rank1_povm(3, 2, seed=12))
    Lr = relabel_instrument(L, {x: f"r{x}" for x in L.labels})
    method, forward, backward = instrument_equivalence(L, Lr)
    assert method == "indecomposable"
    assert witness_error(L, forward) <= DEFAULT_TOL.eq_abs
    assert witness_error(Lr, backward) <= DEFAULT_TOL.eq_abs
    ref = witness_indecomposable_equivalence(L, Lr)
    _same_witness(forward, ref.forward)
    _same_witness(backward, ref.backward)
    A, B = proportional_inequivalent_pair()
    assert witness_indecomposable_equivalence(luders(A), luders(B)) is None
    assert instrument_equivalence(luders(A), luders(B)) == ("indecomposable", None, None)


def test_instrument_equivalence_tests_each_instrument_once_for_indecomposability(monkeypatch):
    L = luders(random_povm(8, 16, seed=13))
    Lr = relabel_instrument(L, {x: f"r{x}" for x in L.labels})
    calls = []
    original = classify.is_indecomposable_instrument
    monkeypatch.setattr(order, "is_indecomposable_instrument", lambda inst, tol: calls.append(inst) or original(inst, tol))
    method, forward, backward = instrument_equivalence(L, Lr)
    assert method == "indecomposable" and forward is not None and backward is not None
    assert calls == [L, Lr]


def test_instrument_equivalence_undecided_without_a_method():
    I, J = (random_instrument(2, 3, 3, 2, seed) for seed in (93, 94))
    for inst in (I, J):
        assert not is_indecomposable_instrument(inst)
        assert is_measure_and_prepare(inst) is None
    assert instrument_equivalence(I, J) == ("none", None, None)
    M = _measure_and_prepare_pairs()["both"][0]
    assert instrument_equivalence(M, random_instrument(2, 2, 2, 2, 95)) == ("none", None, None)


@pytest.mark.parametrize(
    "I, J",
    [
        (luders(basis_pvm(2)), luders(basis_pvm(3))),
        (
            measure_and_prepare(basis_pvm(2), [random_state(2, 96), random_state(2, 97)]),
            measure_and_prepare(basis_pvm(3), [random_state(2, 98 + i) for i in range(3)]),
        ),
        (random_instrument(3, 4, 4, 2, 99), random_instrument(2, 3, 3, 2, 100)),
    ],
    ids=["indecomposable", "measure_and_prepare", "none"],
)
def test_instrument_equivalence_rejects_different_input_spaces(I, J):
    with pytest.raises(DimensionMismatch, match="instruments measure different input spaces"):
        instrument_equivalence(I, J)
