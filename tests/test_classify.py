import numpy as np

from instrorder import (
    Instrument,
    QuantumOperation,
    certificate_error,
    compose_post_processing,
    identity_class_certificate,
    identity_instrument,
    instrument_distance,
    is_extreme,
    is_indecomposable_instrument,
    is_isometric_channel,
    is_measure_and_prepare,
    is_post_processing_clean,
    is_trash_and_prepare,
    is_trivial,
    isometric_channel,
    luders,
    max_effect_distance,
    measure_and_prepare,
    minimal_kraus,
    pair_label,
    random_distribution,
    random_instrument,
    random_isometry,
    random_povm,
    random_rank1_povm,
    random_state,
    random_unitary,
    trash_and_prepare,
    validate_instrument,
    zero_operation,
)
from instrorder.linalg import DEFAULT_TOL, frob_dist

from helpers import (
    basis_pvm,
    projective_povm,
    random_identity_class_instrument,
    trash_and_prepare_choi,
)

from test_instrument import depolarizing_channel


def test_indecomposable_luders():
    for seed in range(5):
        assert is_indecomposable_instrument(luders(random_povm(3, 2, seed)))


def test_indecomposable_rejects_depolarizing():
    assert not is_indecomposable_instrument(depolarizing_channel())


def test_indecomposable_rejects_mixed_preparation():
    p = random_distribution(2, seed=0)
    mixed = [random_state(2, 1), random_state(2, 2)]  # Wishart states are full rank
    T = trash_and_prepare(p, mixed, dim_in=2)
    assert not is_indecomposable_instrument(T)


def test_trash_and_prepare_roundtrip():
    p = np.array([0.5, 0.5])
    kets = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    from instrorder import State

    T = trash_and_prepare(p, [State(2, k) for k in kets], dim_in=2)
    out = is_trash_and_prepare(T)
    assert out is not None
    q, states = out
    assert np.linalg.norm(np.asarray(q) - p) < 1e-9
    for k, s in zip(kets, states):
        assert frob_dist(s.matrix, k) < 1e-9


def test_trash_and_prepare_rejects_identity():
    assert is_trash_and_prepare(identity_instrument(2)) is None


def test_trash_and_prepare_rejects_nontrivial_measurement():
    M = measure_and_prepare(basis_pvm(2), [random_state(2, 3), random_state(2, 4)])
    assert is_trash_and_prepare(M) is None


def test_measure_and_prepare_roundtrip():
    for seed in range(5):
        A = random_povm(3, 2, seed)
        states = [random_state(2, seed + 50 + i) for i in range(3)]
        M = measure_and_prepare(A, states)
        cert = is_measure_and_prepare(M)
        assert cert is not None
        assert max_effect_distance(cert.povm, A) < 1e-9
        for s, t in zip(states, cert.states):
            assert frob_dist(s.matrix, t.matrix) < 1e-9


def test_measure_and_prepare_rejects_rank2_projective_luders():
    P = projective_povm(3, [2, 1], seed=5)
    assert is_measure_and_prepare(luders(P)) is None


def test_measure_and_prepare_accepts_trash_and_prepare():
    p = random_distribution(2, seed=6)
    T = trash_and_prepare(p, [random_state(2, 7), random_state(2, 8)], dim_in=2)
    cert = is_measure_and_prepare(T)
    assert cert is not None
    assert is_trivial(cert.povm) is not None


def test_identity_certificate_for_identity_channel():
    cert = identity_class_certificate(identity_instrument(2))
    assert cert is not None
    (w, V), = cert.branches["0"]
    assert abs(w - 1.0) < 1e-12
    # certificates are unique only up to phase
    phase = np.trace(V) / abs(np.trace(V))
    assert frob_dist(V / phase, np.eye(2)) < 1e-9


def test_identity_certificate_for_random_unitary_instrument():
    p = random_distribution(2, seed=9)
    ops = []
    for k in range(2):
        U = random_unitary(2, seed=10 + k)
        ops.append((str(k), QuantumOperation(2, 2, [np.sqrt(p[k]) * U])))
    I = Instrument(2, 2, ops)
    cert = identity_class_certificate(I)
    assert cert is not None
    assert certificate_error(I, cert) < 1e-9


def test_identity_certificate_holds_within_eq_abs_of_trace_preserving():
    # an isometric channel off trace preservation by less than eq_abs is
    # valid and isometric, so it must also be identity class
    V = random_isometry(2, 3, seed=12)
    for eps in (1e-11, 5e-10):
        I = Instrument(2, 3, [("0", QuantumOperation(2, 3, [np.sqrt(1.0 + eps) * V]))])
        assert validate_instrument(I).ok
        assert is_isometric_channel(I)
        assert identity_class_certificate(I) is not None


def test_identity_certificate_rejects_luders_pvm():
    assert identity_class_certificate(luders(basis_pvm(2))) is None


def test_identity_certificate_rejects_contractive_output():
    # dim_out < dim_in leaves no room for isometries
    from instrorder import random_instrument

    I = random_instrument(2, 3, 2, 1, seed=11)
    assert identity_class_certificate(I) is None


def test_identity_certificate_on_orthogonal_branch_constructions():
    for seed in range(10):
        I = random_identity_class_instrument(2, 2, [2, 1], seed)
        cert = identity_class_certificate(I)
        assert cert is not None
        assert certificate_error(I, cert) < 1e-9
        total = sum(w for entry in cert.branches.values() for w, _ in entry)
        assert abs(total - 1.0) < 1e-10


def test_identity_certificate_branches_are_the_minimal_kraus_matrices():
    # two branches of equal weight: each branch is one minimal Kraus matrix
    # K scaled to an isometry by its weight ‖K‖²_F / dim_in, in minimal_kraus
    # order, with no phase or rotation among the equal-weight branches
    W = random_isometry(4, 4, seed=15)
    op = QuantumOperation(2, 4, [W[:, :2] / np.sqrt(2.0), W[:, 2:] / np.sqrt(2.0)])
    cert = identity_class_certificate(Instrument(2, 4, [("0", op)]))
    assert cert is not None
    kraus = minimal_kraus(op).kraus
    assert len(cert.branches["0"]) == len(kraus) == 2
    for (w, V), K in zip(cert.branches["0"], kraus):
        assert abs(w - 0.5) < 1e-15
        assert abs(w - np.vdot(K, K).real / 2) < 1e-15
        assert np.array_equal(V, K / np.sqrt(w))


def test_extreme_isometric_channel():
    for seed in range(10):
        V = random_isometry(2, 2 + seed % 3, seed)
        assert is_extreme(isometric_channel(V))


def test_extreme_rejects_unitary_mixture():
    U = random_unitary(2, seed=12)
    op = QuantumOperation(2, 2, [np.sqrt(0.5) * np.eye(2, dtype=complex), np.sqrt(0.5) * U])
    assert not is_extreme(Instrument(2, 2, [("0", op)]))


def test_extreme_accepts_basis_luders():
    assert is_extreme(luders(basis_pvm(2)))


def test_clean_equals_irreducible_equals_certificate():
    cases = [
        identity_instrument(2),
        luders(basis_pvm(2)),
        random_identity_class_instrument(2, 2, [1, 2], seed=13),
        trash_and_prepare([1.0], [random_state(2, 14)], dim_in=2),
    ]
    for I in cases:
        present = identity_class_certificate(I) is not None
        assert is_post_processing_clean(I) == present


def test_trash_implies_measure_with_trivial_povm():
    for seed in range(10):
        n = 2 + seed % 2
        p = random_distribution(n, seed)
        T = trash_and_prepare(p, [random_state(2, seed + 30 + i) for i in range(n)], dim_in=2)
        assert is_trash_and_prepare(T) is not None
        cert = is_measure_and_prepare(T)
        assert cert is not None and is_trivial(cert.povm) is not None


def test_identity_class_excludes_trash_and_prepare():
    for seed in range(10):
        I = random_identity_class_instrument(2, 2, [1, 1], seed + 60)
        assert identity_class_certificate(I) is not None
        assert is_trash_and_prepare(I) is None


def test_certificates_reconstruct_choi():
    for seed in range(10):
        I = random_identity_class_instrument(2, 2, [2, 2], seed + 90)
        cert = identity_class_certificate(I)
        assert cert is not None
        assert certificate_error(I, cert) < 1e-9


def test_identity_class_closed_under_tracked_composition():
    # compose an identity-class instrument with identity-class processors that
    # keep per-source outcome labels distinct; the result stays in the class
    for seed in range(6):
        I = random_identity_class_instrument(2, 2, [1, 2], seed)
        targets = [pair_label(k + 1, y) for k in range(len(I.labels)) for y in ("0", "1")]
        processors = {}
        for k, x in enumerate(I.labels):
            R = random_identity_class_instrument(2, I.dim_out, [1, 1], seed + 17 * (k + 1))
            outcomes = []
            for t in targets:
                own = [pair_label(k + 1, y) for y in R.labels]
                if t in own:
                    outcomes.append((t, R.operation(t.split(",")[1].rstrip(")"))))
                else:
                    outcomes.append((t, zero_operation(I.dim_out, R.dim_out)))
            processors[x] = Instrument(I.dim_out, R.dim_out, outcomes)
        J = compose_post_processing(I, processors)
        assert identity_class_certificate(J) is not None


def test_identity_class_not_closed_under_outcome_merging():
    # merging the outcomes of a random-unitary instrument into one loses the
    # orthogonality between branches, so the merged channel leaves the class
    U = random_unitary(2, seed=15)
    ops = [
        ("0", QuantumOperation(2, 2, [np.sqrt(0.5) * np.eye(2, dtype=complex)])),
        ("1", QuantumOperation(2, 2, [np.sqrt(0.5) * U])),
    ]
    I = Instrument(2, 2, ops)
    assert identity_class_certificate(I) is not None
    merged = compose_post_processing(I, {x: identity_instrument(2) for x in I.labels})
    assert len(merged) == 1
    assert identity_class_certificate(merged) is None


def test_depolarizing_is_not_clean():
    assert identity_class_certificate(depolarizing_channel()) is None


def test_measure_and_prepare_is_not_clean():
    M = measure_and_prepare(basis_pvm(2), [random_state(2, 16), random_state(2, 17)])
    assert not is_post_processing_clean(M)


def test_certificate_error_propagates_nan():
    J = identity_instrument(2)
    cert = identity_class_certificate(J)
    (w, V), = cert.branches["0"]
    cert.branches["0"] = [(w, V * np.nan)]
    assert np.isnan(certificate_error(J, cert))


def _perturbed_trash_and_prepare():
    # trash-and-prepare instruments with Kraus matrices of size f·√eq_abs
    # added, whose Choi matrices move by about f²·eq_abs: near the boundary
    # of both classes
    for s in range(150):
        d_in, d_out, n = 2 + s % 3, 1 + s % 4, 2 + s % 3
        p = random_distribution(n, s)
        T = trash_and_prepare(p, [random_state(d_out, 10 * s + i) for i in range(n)], d_in)
        R = random_instrument(n, d_in, d_out, 1, s + 1000)
        for f in (0.7, 0.8, 0.9, 1.0, 1.1):
            c = f * np.sqrt(DEFAULT_TOL.eq_abs)
            yield Instrument(d_in, d_out, [
                (x, QuantumOperation(d_in, d_out, np.concatenate([op.kraus, c * R.operation(x).kraus])))
                for x, op in T.outcomes
            ])


def test_trash_and_prepare_implies_measure_and_prepare_near_the_boundary():
    answers = [
        (is_trash_and_prepare(I) is not None, is_measure_and_prepare(I) is not None)
        for I in _perturbed_trash_and_prepare()
    ]
    assert len(answers) == 750
    assert all(mp for tp, mp in answers if tp)
    assert any(not tp for tp, mp in answers)  # the perturbation reaches the boundary


def test_trash_and_prepare_certificate_matches_choi_reference():
    for s in range(60):
        d_in, d_out, n = 1 + s % 4, 1 + s % 3, 2 + s % 4
        p = random_distribution(n, s)
        if s % 3 == 0:
            p[0] = 0.0  # a zero operation gets the ground state
            p /= p.sum()
        T = trash_and_prepare(p, [random_state(d_out, 7 * s + i) for i in range(n)], d_in)
        got, ref = is_trash_and_prepare(T), trash_and_prepare_choi(T)
        assert got is not None and ref is not None
        assert np.abs(got[0] - ref[0]).max() <= 1e-15
        for state, ref_state in zip(got[1], ref[1]):
            assert np.abs(state.matrix - ref_state).max() <= 1e-15
