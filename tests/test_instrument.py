import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from instrorder import (
    DimensionMismatch,
    Instrument,
    LabelMismatch,
    OutcomeSetMismatch,
    QuantumOperation,
    State,
    StochasticMatrix,
    UnknownLabel,
    apply,
    apply_post_processing,
    choi,
    choi_distance,
    compose_post_processing,
    detailed_instrument,
    identity_instrument,
    induced_povm,
    instrument_distance,
    is_trivial,
    luders,
    luders_refinement_witness,
    max_effect_distance,
    measure_and_prepare,
    minimal_kraus,
    mix,
    pair_label,
    random_distribution,
    random_instrument,
    random_isometry,
    random_povm,
    random_state,
    random_unitary,
    relabel_instrument,
    total_channel,
    tracked_mix,
    trash_and_prepare,
    trivial_povm,
    validate_instrument,
    validate_state,
    zero_operation,
)
from instrorder.instrument import (
    _choi_gap,
    _state_matrix,
    check_weights,
    complete_channel,
    is_zero_operation,
    routed,
)
from instrorder.linalg import Tolerance, frob, frob_dist, hermitize, numerical_rank

from helpers import basis_pvm, minimal_kraus_eigh, mix_pooled, relabel_instrument_pooled

PAULI = [
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
]


def depolarizing_channel():
    return Instrument(2, 2, [("0", QuantumOperation(2, 2, [P / 2.0 for P in PAULI]))])


def test_validate_accepts_luders():
    assert validate_instrument(luders(basis_pvm(2))).ok


def test_validate_flags_scaled_kraus():
    L = luders(basis_pvm(2))
    bad = Instrument(
        2, 2, [(x, QuantumOperation(2, 2, [2.0 * K for K in L.operation(x).kraus])) for x in L.labels]
    )
    report = validate_instrument(bad)
    assert not report.ok
    assert any("normalization" in v or "subnormalization" in v for v in report.violations)


def test_validate_accepts_identity_channel():
    assert validate_instrument(identity_instrument(3)).ok


def test_apply_identity():
    rho = random_state(2, seed=0)
    out, prob = apply(identity_instrument(2), "0", rho)
    assert frob_dist(out, rho.matrix) < 1e-12
    assert abs(prob - 1.0) < 1e-12


def test_apply_luders_basis():
    out, prob = apply(luders(basis_pvm(2)), "0", State(2, np.diag([1.0, 0.0]).astype(complex)))
    assert frob_dist(out, np.diag([1.0, 0.0])) < 1e-12
    assert abs(prob - 1.0) < 1e-12


def test_apply_trash_and_prepare():
    p = [0.3, 0.7]
    xs = [random_state(2, 1), random_state(2, 2)]
    T = trash_and_prepare(p, xs, dim_in=3)
    rho = random_state(3, seed=3)
    for k, x in enumerate(T.labels):
        out, prob = apply(T, x, rho)
        assert abs(prob - p[k]) < 1e-12
        assert frob_dist(out, p[k] * xs[k].matrix) < 1e-12


def test_apply_errors():
    I = identity_instrument(2)
    with pytest.raises(UnknownLabel):
        apply(I, "missing", random_state(2, 0))
    with pytest.raises(DimensionMismatch):
        apply(I, "0", random_state(3, 0))


def test_operation_lookup_by_label():
    zero = QuantumOperation(2, 2, [np.zeros((2, 2))])
    unit = QuantumOperation(2, 2, [np.eye(2)])
    I = Instrument(2, 2, [("a", unit), ("b", zero), ("a", zero)])
    assert I.operation("b") is zero
    assert I.operation("a") is unit  # a repeated label finds its first outcome
    with pytest.raises(UnknownLabel, match="^no outcome labeled 'missing'$"):
        I.operation("missing")


def test_induced_povm_of_luders():
    A = random_povm(3, 2, seed=4)
    assert max_effect_distance(induced_povm(luders(A)), A) < 1e-12


def test_induced_povm_of_trash_and_prepare():
    p = random_distribution(3, seed=5)
    T = trash_and_prepare(p, [random_state(2, 10 + i) for i in range(3)], dim_in=2)
    q = is_trivial(induced_povm(T))
    assert q is not None and np.linalg.norm(q - p) < 1e-9


def test_induced_povm_of_measure_and_prepare():
    A = random_povm(3, 2, seed=6)
    M = measure_and_prepare(A, [random_state(2, 20 + i) for i in range(3)])
    assert max_effect_distance(induced_povm(M), A) < 1e-9


def test_choi_of_identity():
    C = choi(identity_instrument(2).operation("0"))
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            expected[i * 2 + i, j * 2 + j] = 1.0
    assert frob_dist(C, expected) < 1e-15
    assert numerical_rank(C) == 1


def test_choi_of_depolarizing():
    C = choi(depolarizing_channel().operation("0"))
    # oracle: independent spectral decomposition
    w = np.linalg.eigvalsh(C)
    assert np.allclose(w, 0.5)
    assert numerical_rank(C) == 4


def test_minimal_kraus_collapses_duplicates():
    K = random_unitary(2, seed=7) * 0.7
    op = QuantumOperation(2, 2, [K / np.sqrt(2.0), K / np.sqrt(2.0)])
    m = minimal_kraus(op)
    assert len(m.kraus) == 1
    assert choi_distance(op, m) < 1e-12


def test_minimal_kraus_counts_choi_rank():
    op = depolarizing_channel().operation("0")
    m = minimal_kraus(op)
    assert len(m.kraus) == numerical_rank(choi(op)) == 4
    assert choi_distance(op, m) < 1e-12


def test_minimal_kraus_is_cached_per_tolerance():
    op = depolarizing_channel().operation("0")
    m = minimal_kraus(op)
    assert minimal_kraus(op) is m
    coarse = Tolerance(rank_rel=1e-4)
    other = minimal_kraus(op, coarse)
    assert other is not m
    assert minimal_kraus(op, coarse) is other
    assert minimal_kraus(op, Tolerance()) is m


@pytest.mark.parametrize(
    "ks, dim_in, dim_out, added",
    [
        ([], 3, 2, 3),
        ([random_isometry(3, 6, seed=40).conj().T], 6, 3, 3),
        ([random_unitary(3, seed=41)], 3, 3, 0),
    ],
    ids=["empty", "co-isometry", "unitary"],
)
def test_complete_channel_is_trace_preserving(ks, dim_in, dim_out, added):
    out = complete_channel(ks, dim_in, dim_out)
    assert len(out) == len(ks) + added
    assert all(a is b for a, b in zip(out, ks))
    total = sum(K.conj().T @ K for K in out)
    assert frob_dist(total, np.eye(dim_in)) < 1e-12


def _gaussian_kraus(d_in, d_out, k, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(d_out, d_in)) + 1j * rng.normal(size=(d_out, d_in)) for _ in range(k)]


def _kraus_with_choi_spectrum(d_in, d_out, eigenvalues, seed):
    """Kraus matrices, mixed by a random unitary, whose Choi matrix has the
    given nonzero eigenvalues."""
    n = len(eigenvalues)
    Q = random_isometry(n, d_in * d_out, seed)
    V = Q @ np.diag(np.sqrt(eigenvalues)) @ random_unitary(n, seed + 1)
    return [V[:, k].reshape(d_in, d_out).T for k in range(n)]


RANK_REL = Tolerance().rank_rel


@pytest.mark.parametrize(
    "kraus, rank, dropped",
    [
        (_gaussian_kraus(3, 2, 1, 50), 1, 0.0),
        (_gaussian_kraus(3, 2, 6, 51), 6, 0.0),
        (_gaussian_kraus(3, 2, 10, 52), 6, 0.0),
        (_gaussian_kraus(2, 4, 1, 53) * 3 + _gaussian_kraus(2, 4, 2, 54), 3, 0.0),
        ([np.zeros((3, 2), dtype=complex)] * 2, 0, 0.0),
        (_kraus_with_choi_spectrum(2, 3, [1.0, 0.3, RANK_REL * (1 + 1e-3)], 55), 3, 0.0),
        (
            _kraus_with_choi_spectrum(2, 3, [1.0, 0.3, RANK_REL * (1 - 1e-3)], 56),
            2,
            RANK_REL * (1 - 1e-3),
        ),
    ],
    ids=["k=1", "k=D", "k>D", "duplicated", "zero", "just-above-cut", "just-below-cut"],
)
def test_minimal_kraus_matches_choi_eigh(kraus, rank, dropped):
    # dropped: Frobenius norm of the Choi part below the rank_rel cut
    op = QuantumOperation(kraus[0].shape[1], kraus[0].shape[0], kraus)
    tol = Tolerance()
    ref, m = minimal_kraus_eigh(op, tol), minimal_kraus(op, tol)
    assert len(m.kraus) == len(ref.kraus) == max(rank, 1)
    # the same Choi eigenvalues, in the same decreasing order; eigh resolves
    # them only to about 1e-16 of the largest, so small ones differ in relative terms
    weights = [np.linalg.norm(K) ** 2 for K in m.kraus]
    assert weights == sorted(weights, reverse=True)
    assert np.allclose(weights, [np.linalg.norm(K) ** 2 for K in ref.kraus], rtol=1e-9, atol=1e-14)
    assert frob_dist(m.choi_matrix, ref.choi_matrix) <= tol.eq_abs
    assert abs(frob_dist(m.choi_matrix, op.choi_matrix) - dropped) <= tol.eq_abs


def test_minimal_kraus_of_zero_operation():
    m = minimal_kraus(zero_operation(2, 3))
    assert len(m.kraus) == 1
    assert frob_dist(m.kraus[0], np.zeros((3, 2))) == 0.0


def test_compose_delta_identity_recovers_instrument():
    I = random_instrument(2, 2, 2, 2, seed=8)
    processors = {}
    for x in I.labels:
        outcomes = []
        for y in I.labels:
            if y == x:
                outcomes.append((y, QuantumOperation(2, 2, [np.eye(2, dtype=complex)])))
            else:
                outcomes.append((y, zero_operation(2, 2)))
        processors[x] = Instrument(2, 2, outcomes)
    J = compose_post_processing(I, processors)
    assert instrument_distance(J, I) < 1e-12


def test_compose_identity_source_gives_processor():
    R = random_instrument(3, 2, 2, 1, seed=9)
    J = compose_post_processing(identity_instrument(2), {"0": R})
    assert instrument_distance(J, R) < 1e-12


def test_compose_luders_with_preparations_is_measure_and_prepare():
    basis = basis_pvm(2)
    L = luders(basis)
    prep = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    processors = {}
    for k, x in enumerate(L.labels):
        outcomes = []
        for j, y in enumerate(L.labels):
            if y == x:
                ket = np.zeros((2, 1), dtype=complex)
                ket[k, 0] = 1.0
                # trash everything to |k>
                kraus = [ket @ np.eye(1, 2, m, dtype=complex) for m in range(2)]
                outcomes.append((y, QuantumOperation(2, 2, kraus)))
            else:
                outcomes.append((y, zero_operation(2, 2)))
        processors[x] = Instrument(2, 2, outcomes)
    J = compose_post_processing(L, processors)
    M = measure_and_prepare(basis, [State(2, prep[0]), State(2, prep[1])])
    assert instrument_distance(J, M) < 1e-12


def test_compose_validates_dimensions_and_outcomes():
    I = random_instrument(2, 2, 2, 1, seed=10)
    bad_dim = {x: identity_instrument(3) for x in I.labels}
    with pytest.raises(DimensionMismatch):
        compose_post_processing(I, bad_dim)
    p0 = identity_instrument(2)
    p1 = relabel_instrument(identity_instrument(2), {"0": "other"})
    with pytest.raises(OutcomeSetMismatch):
        compose_post_processing(I, {I.labels[0]: p0, I.labels[1]: p1})


def test_luders_of_trivial_povm():
    p = [0.25, 0.75]
    L = luders(trivial_povm(p, 2))
    for k, x in enumerate(L.labels):
        assert frob_dist(L.operation(x).kraus[0], np.sqrt(p[k]) * np.eye(2)) < 1e-12


def test_luders_induced_matches_input():
    for seed in range(10):
        A = random_povm(2 + seed % 3, 2 + seed % 3, seed)
        assert max_effect_distance(induced_povm(luders(A)), A) < 1e-9


def test_trash_and_prepare_single_target():
    T = trash_and_prepare([1.0], [State(2, np.diag([1.0, 0.0]).astype(complex))], dim_in=2)
    rho = random_state(2, seed=11)
    out, prob = apply(T, T.labels[0], rho)
    assert abs(prob - 1.0) < 1e-12
    assert frob_dist(out, np.diag([1.0, 0.0])) < 1e-12


def test_measure_and_prepare_probabilities():
    plus = np.full((2, 2), 0.5, dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    M = measure_and_prepare(basis_pvm(2), [State(2, plus), State(2, minus)])
    out, prob = apply(M, "0", State(2, np.diag([1.0, 0.0]).astype(complex)))
    assert abs(prob - 1.0) < 1e-12
    assert frob_dist(out, plus) < 1e-12


def test_detailed_of_indecomposable_is_relabeling():
    L = luders(random_povm(2, 2, seed=12))
    D = detailed_instrument(L)
    assert D.labels == [pair_label(1, x) for x in L.labels]
    for x in L.labels:
        assert choi_distance(D.operation(pair_label(1, x)), L.operation(x)) < 1e-12


def test_detailed_of_multi_kraus_channel():
    D = detailed_instrument(depolarizing_channel())
    assert len(D) == 4
    assert choi_distance(total_channel(D), total_channel(depolarizing_channel())) < 1e-12


def test_detailed_preserves_total_channel():
    for seed in range(10):
        I = random_instrument(2, 2, 3, 2, seed)
        D = detailed_instrument(I)
        assert choi_distance(total_channel(D), total_channel(I)) < 1e-9
        assert all(len(op.kraus) == 1 for op in D.operations)


def test_mix_single_component():
    I = random_instrument(2, 2, 2, 1, seed=13)
    assert instrument_distance(mix([I], [1.0]), I) < 1e-15


def test_mix_identical_components():
    I = random_instrument(2, 2, 2, 1, seed=14)
    assert instrument_distance(mix([I, I], [0.5, 0.5]), I) < 1e-12


def test_tracked_mix_of_identity_and_unitary():
    U = random_unitary(2, seed=15)
    I1 = identity_instrument(2)
    I2 = Instrument(2, 2, [("0", QuantumOperation(2, 2, [U]))])
    T = tracked_mix([I1, I2], [0.5, 0.5])
    assert len(T) == 2
    assert frob_dist(T.operation(pair_label(1, "0")).kraus[0], np.sqrt(0.5) * np.eye(2)) < 1e-12
    assert frob_dist(T.operation(pair_label(2, "0")).kraus[0], np.sqrt(0.5) * U) < 1e-12


def test_relabel_merging_tracked_mix_gives_mix():
    for seed in range(5):
        parts = [random_instrument(2, 2, 2, 1, seed + 30), random_instrument(2, 2, 2, 2, seed + 60)]
        p = random_distribution(2, seed + 90)
        T = tracked_mix(parts, p)
        merge = {pair_label(i + 1, x): x for i, c in enumerate(parts) for x in c.labels}
        assert instrument_distance(relabel_instrument(T, merge), mix(parts, p)) < 1e-12


def test_mix_choi_additivity():
    parts = [random_instrument(2, 2, 2, 2, seed) for seed in (16, 17, 18)]
    p = random_distribution(3, seed=19)
    M = mix(parts, p)
    for x in M.labels:
        expected = sum(pi * choi(c.operation(x)) for pi, c in zip(p, parts))
        assert frob_dist(choi(M.operation(x)), expected) < 1e-13


def test_mix_pads_missing_outcomes_with_zero():
    I1 = identity_instrument(2)
    I2 = relabel_instrument(identity_instrument(2), {"0": "other"})
    M = mix([I1, I2], [0.5, 0.5])
    assert sorted(M.labels) == ["0", "other"]
    assert validate_instrument(M).ok


def test_luders_refinement_of_luders():
    A = random_povm(2, 2, seed=20)
    L = luders(A)
    phi = luders_refinement_witness(L)
    assert instrument_distance(compose_post_processing(luders(induced_povm(L)), phi), L) < 1e-12


def test_luders_refinement_of_measure_and_prepare():
    A = random_povm(2, 2, seed=21)
    M = measure_and_prepare(A, [random_state(2, 40 + i) for i in range(2)])
    phi = luders_refinement_witness(M)
    assert instrument_distance(compose_post_processing(luders(induced_povm(M)), phi), M) < 1e-9


def test_luders_refinement_random_instruments():
    for seed in range(12):
        I = random_instrument(3, 2, 2, 2, seed + 100)
        phi = luders_refinement_witness(I)
        L = luders(induced_povm(I))
        assert instrument_distance(compose_post_processing(L, phi), I) < 1e-9


def test_luders_refinement_keeps_small_effect_eigenvalues():
    # the 1e-12 eigenvalue lies below rank_rel * max but above psd_sqrt's
    # floor; dropping it would miss I by about its square root, 1e-6
    A = np.diag([0.5, 1e-12, 0.3]).astype(complex)
    V = random_unitary(3, 5)
    I = Instrument(3, 3, [
        ("a", QuantumOperation(3, 3, [V @ np.sqrt(A)])),
        ("b", QuantumOperation(3, 3, [np.sqrt(np.eye(3) - A)])),
    ])
    phi = luders_refinement_witness(I)
    assert instrument_distance(compose_post_processing(luders(induced_povm(I)), phi), I) < 1e-9


def test_probability_conservation():
    for seed in range(20):
        I = random_instrument(2 + seed % 3, 2 + seed % 2, 2 + seed % 3, 1 + seed % 2, seed)
        rho = random_state(I.dim_in, seed + 500)
        total = sum(apply(I, x, rho)[1] for x in I.labels)
        assert abs(total - 1.0) < 1e-9


def test_composed_induced_povm_matches_trace_rule():
    # measure-and-prepare source: induced POVM of the composition equals the
    # post-processing of the induced POVM by nu_xy = tr[R^(x)_y(sigma_x)]
    for seed in range(8):
        A = random_povm(2, 2, seed + 200)
        sigmas = [random_state(2, seed + 210 + i) for i in range(2)]
        M = measure_and_prepare(A, sigmas)
        processors = {x: random_instrument(2, 2, 2, 1, seed + 220 + k) for k, x in enumerate(M.labels)}
        J = compose_post_processing(M, processors)
        entries = np.zeros((2, 2))
        for k, x in enumerate(M.labels):
            R = processors[x]
            for j, y in enumerate(R.labels):
                out, prob = apply(R, y, sigmas[k])
                entries[k, j] = prob
        nu = StochasticMatrix(M.labels, processors[M.labels[0]].labels, entries)
        assert max_effect_distance(induced_povm(J), apply_post_processing(induced_povm(M), nu)) < 1e-9


def test_validate_state():
    assert validate_state(random_state(3, seed=23)).ok
    assert not validate_state(State(2, np.diag([0.6, 0.6]).astype(complex))).ok
    assert not validate_state(State(2, np.array([[1.0, 1.0], [0.0, 0.0]]))).ok
    assert not validate_state(State(2, np.diag([1.5, -0.5]).astype(complex))).ok


def test_operation_keeps_its_own_copy_of_the_kraus_matrices():
    K = np.eye(2, dtype=complex)
    op = QuantumOperation(2, 2, [K])
    K *= 2
    assert np.trace(op.effect).real == 2.0
    assert np.trace(op.choi_matrix).real == 2.0
    stack = np.array([np.eye(2), PAULI[1]], dtype=complex)
    op = QuantumOperation(2, 2, stack)
    op.choi_matrix
    stack *= 2
    assert np.trace(op.effect).real == 4.0
    assert np.trace(op.choi_matrix).real == 4.0


def test_kraus_matrices_are_one_read_only_array():
    op = QuantumOperation(3, 2, [np.asfortranarray(np.ones((2, 3)))])
    assert op.kraus.shape == (1, 2, 3)
    assert op.kraus.dtype == complex
    assert op.kraus.flags.c_contiguous
    with pytest.raises(ValueError):
        op.kraus[0][0, 0] = 1


def test_kraus_shape_mismatch_names_the_shape():
    with pytest.raises(DimensionMismatch, match=r"Kraus shape \(3, 2\), expected \(2, 3\)"):
        QuantumOperation(3, 2, [np.zeros((2, 3)), np.zeros((3, 2))])


def test_stacked_kraus_shape_mismatch_names_the_shape():
    with pytest.raises(DimensionMismatch, match=r"^Kraus shape \(3, 2\), expected \(2, 3\)$"):
        QuantumOperation(3, 2, np.zeros((4, 3, 2)))
    with pytest.raises(DimensionMismatch, match=r"^Kraus shape \(2, 2\), expected \(2, 3\)$"):
        QuantumOperation(3, 2, np.zeros((0, 2, 2)))


def test_measure_and_prepare_kraus_match_the_outer_product_loop():
    A = random_povm(5, 4, seed=31)
    states = [random_state(3, 40 + x) for x in range(5)]
    I = measure_and_prepare(A, states)
    for E, xi, op in zip(A.effects, states, I.operations):
        q, phi = np.linalg.eigh(hermitize(E))
        p, psi = np.linalg.eigh(hermitize(xi.matrix))
        ks = [
            np.sqrt(p[i] * q[j]) * np.outer(psi[:, i], phi[:, j].conj())
            for i in np.nonzero(p > RANK_REL * p.max())[0]
            for j in np.nonzero(q > RANK_REL * q.max())[0]
        ]
        assert len(ks) == 12
        assert op.kraus.tobytes() == np.array(ks).tobytes()


def test_measure_and_prepare_keeps_the_eigh_kraus_on_multiples_of_identity():
    # trivial effects c·I and the maximally mixed state skip eigh, which
    # returns (c, …, c) and the standard basis there: the same bytes
    A = trivial_povm([0.0, 0.25, 0.75, 1.0 / 3.0], 4)
    states = [np.eye(4) / 4, random_state(4, 50), np.eye(4) / 4, random_state(4, 51)]
    I = measure_and_prepare(A, states)
    for E, xi, op in zip(A.effects, states, I.operations):
        q, phi = np.linalg.eigh(hermitize(E))
        p, psi = np.linalg.eigh(hermitize(_state_matrix(xi)))
        ks = [
            np.sqrt(p[i] * q[j]) * np.outer(psi[:, i], phi[:, j].conj())
            for i in np.nonzero(p > RANK_REL * p.max())[0]
            for j in np.nonzero(q > RANK_REL * q.max())[0]
        ]
        assert op.kraus.tobytes() == (np.array(ks) if ks else np.zeros((1, 4, 4), dtype=complex)).tobytes()


def test_empty_and_all_zero_kraus_lists_give_the_zero_operation():
    ref = zero_operation(3, 2)
    assert ref.kraus.shape == (1, 2, 3)
    for ks in ([], [np.zeros((2, 3))] * 3):
        op = QuantumOperation(3, 2, ks)
        assert op.kraus.shape == (1, 2, 3)
        assert not op.kraus.any()
        assert choi_distance(op, ref) == 0.0


def test_zero_kraus_matrices_are_dropped_and_nan_ones_kept():
    Z = np.zeros((2, 2))
    N = np.full((2, 2), np.nan)
    op = QuantumOperation(2, 2, [Z, PAULI[1], Z, N])
    assert len(op.kraus) == 2
    assert np.array_equal(op.kraus[0], PAULI[1])
    assert np.isnan(op.kraus[1]).all()


def test_effect_and_application_equal_the_per_matrix_sums():
    I = random_instrument(2, 3, 2, 3, seed=7)
    rho = random_state(3, seed=8).matrix
    for op in I.operations:
        E = np.zeros((3, 3), dtype=complex)
        out = np.zeros((2, 2), dtype=complex)
        for K in op.kraus:
            E += K.conj().T @ K
            out += K @ rho @ K.conj().T
        assert np.array_equal(op.effect, E)
        assert np.array_equal(op(rho), out)


def test_compose_orders_products_processor_kraus_first():
    A = [PAULI[0], PAULI[1]]
    B = [PAULI[2], np.diag([1.0, 2.0])]
    I = Instrument(2, 2, [("0", QuantumOperation(2, 2, A))])
    R = Instrument(2, 2, [("y", QuantumOperation(2, 2, B))])
    J = compose_post_processing(I, {"0": R})
    expected = [Rk @ Ki for Rk in B for Ki in A]
    assert np.array_equal(J.operation("y").kraus, np.array(expected))


def test_compose_skips_zero_processor_operations():
    # routed processors: each source outcome reaches one target label, and
    # no source outcome reaches "c", which composes to the zero operation
    I = random_instrument(3, 2, 2, 2, 4)
    V = random_unitary(2, 9)
    ident = QuantumOperation(2, 2, [V])
    to = {"0": "a", "1": "b", "2": "a"}
    J = compose_post_processing(I, {x: routed(ident, ["a", "b", "c"], to[x]) for x in I.labels})
    for y in ("a", "b"):
        expected = [V @ K for x, op in I.outcomes if to[x] == y for K in op.kraus]
        assert np.array_equal(J.operation(y).kraus, np.array(expected))
    assert np.array_equal(J.operation("c").kraus, np.zeros((1, 2, 2)))


@pytest.mark.parametrize(
    "p",
    [[np.nan, 0.5], [np.nan, 1.0], [np.inf, -np.inf], [0.5, 0.5 + 1e-11], [-1e-11, 1.0 + 1e-11]],
)
def test_check_weights_rejects_non_distributions(p):
    with pytest.raises(ValueError, match="probability distribution"):
        check_weights(p, ["a", "b"])


def test_check_weights_allows_rounding_slack():
    p = check_weights([-1e-13, 1.0 + 1e-13], ["a", "b"])
    assert p.dtype == float
    with pytest.raises(ValueError, match="one weight per component"):
        check_weights([1.0], ["a", "b"])


def test_mixtures_reject_nan_weights():
    I = identity_instrument(2)
    for build in (mix, tracked_mix):
        with pytest.raises(ValueError, match="probability distribution"):
            build([I, I], [np.nan, 0.5])


def test_zero_test_does_not_form_the_choi_matrix():
    op = random_instrument(2, 3, 2, 2, seed=3).operation("0")
    assert not is_zero_operation(op)
    assert "choi_matrix" not in op.__dict__
    assert is_zero_operation(zero_operation(3, 2))


def test_zero_test_agrees_with_the_choi_trace():
    tol = Tolerance()
    ops = [op for seed in range(5) for op in random_instrument(3, 3, 2, 2, seed).operations]
    # scaled so that Σ‖K‖²_F sits just under and just over eq_abs
    base = ops[0]
    weight = np.trace(base.choi_matrix).real
    for factor in (1 - 1e-6, 1 + 1e-6):
        s = np.sqrt(factor * tol.eq_abs / weight)
        ops.append(QuantumOperation(base.dim_in, base.dim_out, s * base.kraus))
    answers = [is_zero_operation(op, tol) for op in ops]
    assert answers[-2:] == [True, False]
    assert answers == [np.trace(op.choi_matrix).real <= tol.eq_abs for op in ops]


def _gap_operands(d_in, d_out, k_a, k_b, relation, scale, seed):
    """Kraus stacks a and b; k = 0 gives the zero operation.  relation:
    independent b; b a unitary mixture of a (the same operation); b equal
    to a; or b = a + scale · noise."""
    rng = np.random.default_rng(seed)
    gauss = lambda k: rng.normal(size=(k, d_out, d_in)) + 1j * rng.normal(size=(k, d_out, d_in))
    a = gauss(k_a)
    if relation == "independent":
        b = gauss(k_b)
    elif relation == "mixed":
        U, _ = np.linalg.qr(rng.normal(size=(k_a, k_a)) + 1j * rng.normal(size=(k_a, k_a)))
        b = np.einsum("ij,jab->iab", U, a)
    elif relation == "equal":
        b = a.copy()
    else:
        b = a + scale * gauss(k_a)
    return QuantumOperation(d_in, d_out, a), QuantumOperation(d_in, d_out, b)


@given(
    d_in=st.integers(1, 6),
    d_out=st.integers(1, 6),
    k_a=st.integers(0, 40),
    k_b=st.integers(0, 40),
    relation=st.sampled_from(["independent", "mixed", "equal", "perturbed"]),
    scale=st.sampled_from([1e-12, 1e-11, 1e-10, 1e-9, 1e-8]),
    seed=st.integers(0, 2**32),
)
@example(d_in=6, d_out=6, k_a=30, k_b=6, relation="independent", scale=1e-9, seed=1)  # k = D
@example(d_in=2, d_out=3, k_a=0, k_b=0, relation="independent", scale=1e-9, seed=2)  # both zero
@example(d_in=3, d_out=2, k_a=0, k_b=4, relation="independent", scale=1e-9, seed=3)  # a zero
@example(d_in=4, d_out=4, k_a=3, k_b=0, relation="independent", scale=1e-9, seed=4)  # b zero
@example(d_in=5, d_out=4, k_a=7, k_b=0, relation="mixed", scale=1e-9, seed=5)
@example(d_in=6, d_out=5, k_a=40, k_b=0, relation="mixed", scale=1e-9, seed=6)  # k > D
@example(d_in=4, d_out=6, k_a=5, k_b=0, relation="perturbed", scale=1e-10, seed=7)
@settings(derandomize=True, deadline=None, max_examples=120, database=None)
def test_choi_gap_matches_the_dense_choi_distance(d_in, d_out, k_a, k_b, relation, scale, seed):
    a, b = _gap_operands(d_in, d_out, k_a, k_b, relation, scale, seed)
    Ca, Cb = a.choi_matrix, b.choi_matrix
    dense = frob_dist(Ca, Cb)
    assert abs(_choi_gap(a, b) - dense) <= 1e-13 * (1.0 + frob(Ca) + frob(Cb))
    assert _choi_gap(b, a) == pytest.approx(_choi_gap(a, b), rel=1e-12, abs=1e-13 * (1.0 + frob(Ca)))
    if relation == "equal":
        assert _choi_gap(a, b) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("dim", [2, 4], ids=["dense", "qr"])  # k = 2 against D = 4, 16
def test_choi_gap_of_a_non_finite_operation_is_nan(bad, dim):
    a = QuantumOperation(dim, dim, [np.eye(dim)])
    K = np.eye(dim, dtype=complex)
    K[1, 0] = bad
    b = QuantumOperation(dim, dim, [K])
    with np.errstate(invalid="ignore"):
        assert np.isnan(_choi_gap(a, b)) and np.isnan(_choi_gap(b, a))


def assert_same_bytes(I, J):
    assert (I.dim_in, I.dim_out, I.labels) == (J.dim_in, J.dim_out, J.labels)
    for a, b in zip(I.operations, J.operations):
        assert a.kraus.shape == b.kraus.shape
        assert a.kraus.tobytes() == b.kraus.tobytes()


def _label_maps(labels, seed):
    m = 1 + seed % 3
    return [
        {x: str((len(labels) - i) % m) for i, x in enumerate(labels)},  # merges outcomes
        lambda x: f"r{x}",  # a bijection
        lambda x: "all",  # a constant map
        {x: "low" if i < 2 else x for i, x in enumerate(labels)},
    ]


@pytest.mark.parametrize("seed", range(40))
def test_relabel_instrument_matches_pooling_reference_bytewise(seed):
    n, d_in, d_out, k = 1 + seed % 5, 1 + seed % 3, 1 + seed % 4, 1 + seed % 2
    I = random_instrument(n, d_in, max(d_in, d_out), k, seed)
    # a zero weight gives zero operations, which pool to nothing
    T = tracked_mix([I, I], [0.0, 1.0] if seed % 2 else [0.25, 0.75])
    for J in (I, T):
        for f in _label_maps(J.labels, seed):
            assert_same_bytes(relabel_instrument(J, f), relabel_instrument_pooled(J, f))


def test_relabel_instrument_requires_total_map_as_reference_does():
    I = random_instrument(3, 2, 2, 1, seed=3)
    partial = {"0": "a", "1": "b"}
    for build in (relabel_instrument, relabel_instrument_pooled):
        with pytest.raises(LabelMismatch, match="not defined on '2'"):
            build(I, partial)
    with pytest.raises(LabelMismatch):
        relabel_instrument(I, lambda x: {"0": "a"}[x])


@pytest.mark.parametrize("seed", range(40))
def test_mix_matches_pooling_reference_bytewise(seed):
    n, d, k = 1 + seed % 4, 1 + seed % 3, 1 + seed % 3
    parts = [random_instrument(n + i % 2, d, d, k, seed + 10 * i) for i in range(1 + seed % 4)]
    # components that lack labels of the others, or share none with them
    if len(parts) > 1:
        parts[1] = relabel_instrument(parts[1], lambda x: f"b{x}" if seed % 3 or x != "0" else x)
    p = random_distribution(len(parts), seed)
    if len(parts) > 1 and seed % 2:
        p[seed % len(parts)] = 0.0
        p /= p.sum()
    assert_same_bytes(mix(parts, p), mix_pooled(parts, p))


def test_post_processing_an_instrument_without_outcomes_raises():
    empty = Instrument(2, 2, [])
    with pytest.raises(OutcomeSetMismatch, match="no outcome"):
        compose_post_processing(empty, {})
    with pytest.raises(OutcomeSetMismatch, match="no outcome"):
        relabel_instrument(empty, {})
    with pytest.raises(OutcomeSetMismatch, match="no outcome"):
        mix([empty, empty], [0.5, 0.5])
