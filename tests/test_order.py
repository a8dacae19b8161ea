import numpy as np
import pytest

from instrorder import (
    CertificateMismatch,
    DimensionMismatch,
    Instrument,
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
    identity_class_certificate,
    identity_instrument,
    induced_povm,
    instrument_distance,
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
from instrorder.linalg import DEFAULT_TOL, frob_dist
from instrorder.order import _checked, _witness

from helpers import (
    basis_pvm,
    random_identity_class_instrument,
    random_indecomposable,
    split_and_dress,
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


def test_identity_reversal_rejects_foreign_certificate():
    I = random_identity_class_instrument(2, 2, [1, 1], seed=6)
    other = random_identity_class_instrument(2, 2, [1, 1], seed=7)
    cert = identity_class_certificate(other)
    with pytest.raises(CertificateMismatch):
        witness_identity_reversal(I, cert)


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


def test_identity_reversal_rejects_nan_certificate():
    J = identity_instrument(2)
    cert = identity_class_certificate(J)
    (w, V), = cert.branches["0"]
    cert.branches["0"] = [(w, V * np.nan)]
    with pytest.raises(CertificateMismatch):
        witness_identity_reversal(J, cert)


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
