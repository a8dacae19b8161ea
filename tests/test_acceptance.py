"""Acceptance suite: one test per release criterion.

Each test prints a single "ACCEPTANCE n: PASS/FAIL" line summarizing what was
checked, then asserts.  Replay tolerance is 1e-9, serialization round trips
must hold within 1e-15, and algebraic identities within 1e-12 throughout.
"""

import contextlib
import io
import json
import sys

import numpy as np
import scipy.linalg
import pytest

from instrorder import (
    Instrument,
    NotMeasureAndPrepare,
    Povm,
    QuantumOperation,
    apply_post_processing,
    check_povm_necessary_condition,
    compose_post_processing,
    detailed_instrument,
    find_post_processing,
    identity_class_certificate,
    identity_instrument,
    induced_povm,
    instrument_distance,
    is_extreme,
    is_trash_and_prepare,
    isometric_channel,
    load,
    luders,
    measure_and_prepare,
    minimal_sufficient,
    povm_equivalent,
    random_distribution,
    random_instrument,
    random_isometry,
    random_povm,
    random_rank1_povm,
    random_state,
    random_unitary,
    replay_witness,
    save,
    trash_and_prepare,
    trivial_povm,
    witness_detailed_to_original,
    witness_error,
    witness_identity_reversal,
    witness_indecomposable_equivalence,
    witness_map_post_processing,
    witness_original_to_detailed,
    witness_to_trash_and_prepare,
)
from instrorder.linalg import frob_dist
from instrorder.povm import proportional_inequivalent_pair
from instrorder.cli import main
from instrorder.serialize import document_for

from helpers import (
    basis_pvm,
    projective_povm,
    random_identity_class_instrument,
    random_indecomposable,
    random_stochastic,
    split_and_dress,
    weighted_rank1_pair,
)

REPLAY_TOL = 1e-9
ROUND_TRIP_TOL = 1e-15
ALGEBRA_TOL = 1e-12


def _report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:  # echo past pytest's capture
        print(line, file=sys.__stdout__)


def _run_cli(argv):
    """Invoke the command line in process, returning (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_acceptance_1_witness_replays_match_targets():
    """Replayed witness compositions hit their declared targets within 1e-9
    across every witness constructor."""
    failures = []
    total = 0

    def check(name, source, w):
        nonlocal total
        total += 1
        err = witness_error(source, w)
        if not err <= REPLAY_TOL:
            failures.append((name, err))

    # detailed instrument back to its original
    for seed in range(50):
        I = random_instrument(2 + seed % 2, 2 + seed % 2, 2 + seed % 3, 2, seed)
        w = witness_detailed_to_original(I)
        check("detailed_to_original", detailed_instrument(I), w)

    # original to detailed, on constructions with orthogonal Kraus branches
    for seed in range(20):
        I = random_identity_class_instrument(2, 2, [1, 2], seed)
        w = witness_original_to_detailed(I)
        assert w is not None
        check("original_to_detailed/isometric", I, w)
    for seed in range(20):
        d = 2 + seed % 3
        sizes = [d - 1, 1] if d > 1 else [1]
        L = luders(projective_povm(d, sizes, seed))
        w = witness_original_to_detailed(L)
        assert w is not None
        check("original_to_detailed/luders", L, w)

    # identity-class reversal
    for seed in range(40):
        I = random_identity_class_instrument(1 + seed % 3, 2, [1 + seed % 2, 1], seed)
        check("identity_reversal", I, witness_identity_reversal(I))

    # down to trash-and-prepare
    for seed in range(40):
        I = random_instrument(2, 2, 2, 2, seed)
        m = 1 + seed % 3
        p = random_distribution(m, seed + 1000)
        states = [random_state(2, seed + 2000 + i) for i in range(m)]
        check("to_trash_and_prepare", I, witness_to_trash_and_prepare(I, p, states))

    # indecomposable equivalence, both directions
    for seed in range(25):
        d = 2 + seed % 2
        A = random_indecomposable(d + 1, d, seed)
        J, _ = split_and_dress(A, d + seed % 2, seed + 3000)
        w = witness_indecomposable_equivalence(A, J)
        assert w is not None
        check("indecomposable_equivalence/forward", A, w.forward)
        check("indecomposable_equivalence/backward", J, w.backward)

    # measure-and-prepare order witnesses
    for seed in range(30):
        n = 2 + seed % 2
        P = random_povm(n, 2, seed)
        states_i = [random_state(2, seed + 4000 + i) for i in range(n)]
        I = measure_and_prepare(P, states_i)
        nu = random_stochastic(P.labels, ["u", "v"], seed + 5000)
        Q = apply_post_processing(P, nu)
        states_j = [random_state(2, seed + 6000 + i) for i in range(2)]
        J = measure_and_prepare(Q, states_j)
        w = witness_map_post_processing(I, J)
        assert w is not None
        check("map_post_processing", I, w)

    ok = total >= 200 and not failures
    _report(1, ok, f"{total} witness replays, worst cases within {REPLAY_TOL:g}"
            if ok else f"{len(failures)} of {total} replays exceeded {REPLAY_TOL:g}: {failures[:3]}")
    assert total >= 200
    assert not failures, failures[:5]


def test_acceptance_2_equivalence_agrees_with_induced_povm():
    """Witness presence between indecomposable instruments matches POVM
    post-processing equivalence exactly, positives and negatives."""
    disagreements = []
    total = 0
    for seed in range(50):  # positives: split and dress a common source
        d = 2 + seed % 2
        A = random_indecomposable(d + seed % 2, d, seed)
        J, _ = split_and_dress(A, d, seed + 100)
        w = witness_indecomposable_equivalence(A, J)
        nu = povm_equivalent(induced_povm(A), induced_povm(J))
        total += 1
        if (w is None) != (nu is None) or w is None:
            disagreements.append(("positive", seed, w is None, nu is None))
    for seed in range(50):  # negatives: same rays, mismatched weights
        P, Q = weighted_rank1_pair(2, seed)
        w = witness_indecomposable_equivalence(luders(P), luders(Q))
        nu = povm_equivalent(P, Q)
        total += 1
        if (w is None) != (nu is None) or w is not None:
            disagreements.append(("negative", seed, w is None, nu is None))
    ok = total >= 100 and not disagreements
    _report(2, ok, f"{total} indecomposable pairs, witness presence matches POVM equivalence"
            if ok else f"{len(disagreements)} disagreements: {disagreements[:3]}")
    assert total >= 100
    assert not disagreements, disagreements[:5]


def test_acceptance_3_proportional_pair_is_rejected_deterministically():
    """The fixed 4-outcome pair with weights (1/2,1/2,1/2,1/2) vs
    (1/3,1/3,2/3,2/3) on two bases is rejected by every decision route,
    twice over."""
    outcomes = []
    for _ in range(2):
        A, B = proportional_inequivalent_pair()
        outcomes.append(
            (
                find_post_processing(A, B) is None,
                find_post_processing(B, A) is None,
                povm_equivalent(A, B) is None,
                witness_indecomposable_equivalence(luders(A), luders(B)) is None,
            )
        )
    ok = outcomes[0] == outcomes[1] == (True, True, True, True)
    _report(3, ok, "all four rejection routes fire, identically on repeat"
            if ok else f"unexpected results {outcomes}")
    assert ok


def test_acceptance_4_identity_class_membership():
    """Orthogonal-isometry mixtures are certified and reversible to the
    identity channel; Lüders instruments of nontrivial PVMs are refused."""
    accept_failures = []
    for seed in range(100):
        n = 1 + seed % 3
        branch_counts = [1 + (seed + i) % 2 for i in range(n)]
        I = random_identity_class_instrument(n, 2, branch_counts, seed)
        cert = identity_class_certificate(I)
        if cert is None:
            accept_failures.append(("no certificate", seed))
            continue
        w = witness_identity_reversal(I)
        gap = instrument_distance(replay_witness(I, w), identity_instrument(I.dim_in))
        if not gap <= REPLAY_TOL:
            accept_failures.append(("reversal gap", seed, gap))
    reject_failures = []
    sizes_by_dim = {2: [1, 1], 3: [2, 1], 4: [2, 1, 1]}
    for seed in range(100):
        d = 2 + seed % 3
        L = luders(projective_povm(d, sizes_by_dim[d], seed))
        if identity_class_certificate(L) is not None:
            reject_failures.append(seed)
    ok = not accept_failures and not reject_failures
    _report(4, ok, "100 mixtures certified and reversed, 100 Lüders instruments refused"
            if ok else f"accept failures {accept_failures[:3]}, reject failures {reject_failures[:3]}")
    assert not accept_failures, accept_failures[:5]
    assert not reject_failures, reject_failures[:5]


def test_acceptance_5_trash_and_prepare_is_least_and_closed():
    """Everything reaches trash-and-prepare, and post-processing a
    trash-and-prepare instrument never leaves the class."""
    reach_failures = []
    for seed in range(100):
        n = 1 + seed % 3
        I = random_instrument(n, 2, 2 + seed % 2, 1 + seed % 2, seed)
        m = 1 + seed % 2
        p = random_distribution(m, seed + 500)
        states = [random_state(2, seed + 600 + i) for i in range(m)]
        w = witness_to_trash_and_prepare(I, p, states)
        err = witness_error(I, w)
        if not err <= REPLAY_TOL:
            reach_failures.append((seed, err))
    closure_failures = []
    for seed in range(100):
        m = 1 + seed % 3
        p = random_distribution(m, seed)
        states = [random_state(2, seed + 50 + i) for i in range(m)]
        T = trash_and_prepare(p, states, dim_in=2)
        processors = {
            x: random_instrument(2, T.dim_out, 2, 1 + seed % 2, seed + 70 + i)
            for i, x in enumerate(T.labels)
        }
        C = compose_post_processing(T, processors)
        if is_trash_and_prepare(C) is None:
            closure_failures.append(seed)
    ok = not reach_failures and not closure_failures
    _report(5, ok, "100 reach witnesses replay, 100 post-processings stay trash-and-prepare"
            if ok else f"reach failures {reach_failures[:3]}, closure failures {closure_failures[:3]}")
    assert not reach_failures, reach_failures[:5]
    assert not closure_failures, closure_failures[:5]


def test_acceptance_6_necessary_condition_and_falsifiers():
    """When J is an indecomposable post-processing of I the induced-POVM
    condition holds; engineered violations block every witness route."""
    positive_failures = []
    for seed in range(100):
        d = 2 + seed % 2
        I = random_indecomposable(d + seed % 3, d, seed)
        J, _ = split_and_dress(I, d + seed % 2, seed + 900)
        if not check_povm_necessary_condition(I, J):
            positive_failures.append(seed)
    falsifier_failures = []
    for seed in range(20):
        d = 2 + seed % 2
        I = luders(random_rank1_povm(d + 1, d, seed))
        J = luders(trivial_povm(random_distribution(2, seed + 40), d))
        if check_povm_necessary_condition(I, J):
            falsifier_failures.append(("condition held", seed))
            continue
        if witness_indecomposable_equivalence(I, J) is not None:
            falsifier_failures.append(("equivalence witness appeared", seed))
        try:
            w = witness_map_post_processing(I, J)
        except NotMeasureAndPrepare:
            w = None
        if w is not None:
            falsifier_failures.append(("map witness appeared", seed))
    ok = not positive_failures and not falsifier_failures
    _report(6, ok, "100 constructed pairs satisfy the condition, 20 falsifiers block all routes"
            if ok else f"positives {positive_failures[:3]}, falsifiers {falsifier_failures[:3]}")
    assert not positive_failures, positive_failures[:5]
    assert not falsifier_failures, falsifier_failures[:5]


def _with_duplicates_and_zero(seed):
    base = random_povm(2 + seed % 3, 2 + seed % 2, seed)
    outcomes = []
    for i, (label, E) in enumerate(base.outcomes):
        if i == seed % len(base):
            outcomes.append((label + "a", 0.4 * E))
            outcomes.append((label + "b", 0.6 * E))
        else:
            outcomes.append((label, E))
    outcomes.append(("null", np.zeros((base.dim, base.dim), dtype=complex)))
    return Povm(base.dim, outcomes)


def test_acceptance_7_minimal_sufficiency():
    """Minimal forms drop zero effects, merge proportional ones, stabilize,
    and reconstruct the input through the returned grouping."""
    failures = []
    for seed in range(200):
        A = _with_duplicates_and_zero(seed)
        red, grp = minimal_sufficient(A)
        traces = [np.trace(E).real for E in red.effects]
        if min(traces) <= 1e-12:
            failures.append(("vanishing effect", seed))
            continue
        normed = [E / t for E, t in zip(red.effects, traces)]
        for i in range(len(normed)):
            for j in range(i + 1, len(normed)):
                if frob_dist(normed[i], normed[j]) <= 1e-9:
                    failures.append(("proportional pair kept", seed, i, j))
        red2, grp2 = minimal_sufficient(red)
        if red2.labels != red.labels or any(
            frob_dist(a, b) > ALGEBRA_TOL for a, b in zip(red.effects, red2.effects)
        ):
            failures.append(("not idempotent", seed))
        # replay through the grouping, both directions
        for c in red.labels:
            merged = sum(
                (A.effect(l) for l in A.labels if grp.class_of.get(l) == c),
                np.zeros((A.dim, A.dim), dtype=complex),
            )
            if frob_dist(merged, red.effect(c)) > REPLAY_TOL:
                failures.append(("merge replay", seed, c))
        for l in A.labels:
            if l in grp.dropped:
                if np.trace(A.effect(l)).real > 1e-9:
                    failures.append(("dropped a live effect", seed, l))
                continue
            back = grp.weights[l] * red.effect(grp.class_of[l])
            if frob_dist(back, A.effect(l)) > REPLAY_TOL:
                failures.append(("weight replay", seed, l))
    ok = not failures
    _report(7, ok, "200 reduced POVMs are minimal and replay their inputs"
            if ok else f"{len(failures)} failures: {failures[:3]}")
    assert not failures, failures[:5]


def _oracle_extreme(I, rank_rel=1e-8):
    """Second-route extremality: SVD-based minimal Kraus from the Choi
    matrix, then pivoted-QR rank of the stacked products K_i† K_j."""
    rows = []
    for op in I.operations:
        C = op.choi_matrix
        if np.trace(C).real <= 1e-12:
            continue
        U, s, _ = scipy.linalg.svd(C)
        keep = s > s[0] * 1e-12
        ks = []
        for k in np.nonzero(keep)[0]:
            K = np.sqrt(s[k]) * U[:, k].reshape(op.dim_in, op.dim_out).T
            ks.append(K)
        # decomposition sanity: the kept vectors rebuild the Choi matrix
        rebuilt = sum(
            np.outer(K.T.reshape(-1), K.T.reshape(-1).conj()) for K in ks
        )
        assert frob_dist(rebuilt, C) < 1e-10
        for Ki in ks:
            for Kj in ks:
                rows.append((Ki.conj().T @ Kj).reshape(-1))
    if not rows:
        return True
    M = np.array(rows)
    _, R, _ = scipy.linalg.qr(M.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int((diag > diag[0] * rank_rel).sum()) if diag[0] > 0 else 0
    return rank == len(rows)


def test_acceptance_8_extremality_spot_checks():
    """Isometric channels and basis Lüders instruments are extreme, balanced
    two-unitary mixtures are not, in exact agreement with a second-route
    Gram-rank oracle."""
    mismatches = []
    cases = []
    for seed in range(12):
        d = 2 + seed % 3
        cases.append(("isometric", isometric_channel(random_isometry(d, d + seed % 2, seed)), True))
    for d in (2, 3, 4):
        cases.append(("basis_luders", luders(basis_pvm(d)), True))
    for seed in range(12):
        d = 2 + seed % 2
        U = random_unitary(d, seed)
        V = random_unitary(d, seed + 77)
        op = QuantumOperation(d, d, [U / np.sqrt(2.0), V / np.sqrt(2.0)])
        cases.append(("two_unitary_mix", Instrument(d, d, [("0", op)]), False))
    for name, I, expected in cases:
        got = is_extreme(I)
        want = _oracle_extreme(I)
        if got != expected or want != expected:
            mismatches.append((name, got, want, expected))
    ok = not mismatches
    _report(8, ok, f"{len(cases)} verdicts agree with the pivoted-QR oracle"
            if ok else f"mismatches {mismatches[:3]}")
    assert not mismatches, mismatches[:5]


def test_acceptance_9_round_trip_and_cli_examples(tmp_path):
    """Serialization preserves matrices to 1e-15 over 100 documents and the
    three command-line walkthroughs exit with their documented codes."""
    failures = []
    for seed in range(100):
        kind = seed % 3
        path = tmp_path / f"doc{seed}.json"
        if kind == 0:
            P = random_povm(1 + seed % 4, 1 + seed % 3, seed)
            save(document_for(P), path)
            Q = load(path).payload
            gap = max(
                np.abs(P.effect(x) - Q.effect(x)).max() for x in P.labels
            )
        elif kind == 1:
            I = random_instrument(1 + seed % 3, 2, 2 + seed % 2, 1 + seed % 2, seed)
            save(document_for(I), path)
            J = load(path).payload
            gap = max(
                frob_dist(I.operation(x).choi_matrix, J.operation(x).choi_matrix) for x in I.labels
            )
        else:
            s = random_state(1 + seed % 4, seed)
            save(document_for(s), path)
            gap = np.abs(load(path).payload.matrix - s.matrix).max()
        if not gap <= ROUND_TRIP_TOL:
            failures.append((seed, gap))

    A, B = proportional_inequivalent_pair()
    pa, pb = tmp_path / "pa.json", tmp_path / "pb.json"
    save(document_for(A), pa)
    save(document_for(B), pb)
    code1, out1 = _run_cli(["equiv", str(pa), str(pb)])

    T = trash_and_prepare([0.3, 0.7], [random_state(2, 1), random_state(2, 2)], dim_in=2)
    tp = tmp_path / "tp.json"
    save(document_for(T), tp)
    code2, out2 = _run_cli(["classify", "--json", str(tp)])
    report = json.loads(out2)

    def damping(gamma):
        k0 = np.diag([1.0, np.sqrt(1.0 - gamma)]).astype(complex)
        k1 = np.zeros((2, 2), dtype=complex)
        k1[0, 1] = np.sqrt(gamma)
        return Instrument(2, 2, [("0", QuantumOperation(2, 2, [k0, k1]))])

    da, db = tmp_path / "da.json", tmp_path / "db.json"
    save(document_for(damping(0.3)), da)
    save(document_for(damping(0.6)), db)
    code3, _ = _run_cli(["equiv", str(da), str(db)])

    cli_ok = (
        code1 == 1
        and "not equivalent" in out1
        and code2 == 0
        and report["trash_and_prepare"] is True
        and report["measure_and_prepare"] is True
        and report["identity_class"] is False
        and code3 == 3
    )
    ok = not failures and cli_ok
    _report(9, ok, "100 round trips exact, CLI examples exit 1 / 0 / 3"
            if ok else f"round-trip failures {failures[:3]}, cli codes {(code1, code2, code3)}")
    assert not failures, failures[:5]
    assert cli_ok, (code1, code2, code3)
