import logging

import numpy as np
import pytest

from instrorder import (
    DimensionMismatch,
    LabelMismatch,
    Povm,
    StochasticMatrix,
    UnknownLabel,
    apply_post_processing,
    find_post_processing,
    is_indecomposable_povm,
    is_trivial,
    max_effect_distance,
    minimal_sufficient,
    povm_equivalent,
    proportional_inequivalent_pair,
    random_distribution,
    random_povm,
    relabel,
    trivial_povm,
    validate_povm,
)
import instrorder.povm
from instrorder.linalg import DEFAULT_TOL, frob_dist
from instrorder.povm import _vec_hermitian

from helpers import basis_pvm, find_post_processing_lp, random_stochastic, relabel_pooled


def test_validate_accepts_basis_pvm():
    assert validate_povm(basis_pvm(2)).ok


def test_validate_flags_completeness():
    P = Povm(2, [("a", np.eye(2)), ("b", np.eye(2))])
    report = validate_povm(P)
    assert not report.ok
    assert any("completeness" in v for v in report.violations)


def test_validate_flags_positivity():
    P = Povm(2, [("a", np.diag([1.1, 1.0])), ("b", np.diag([-0.1, 0.0]))])
    report = validate_povm(P)
    assert not report.ok
    assert any("positivity" in v and "b" in v for v in report.violations)


def test_validate_flags_duplicate_labels():
    P = Povm(2, [("a", 0.5 * np.eye(2)), ("a", 0.5 * np.eye(2))])
    assert not validate_povm(P).ok


def test_stochastic_matrix_invariants():
    StochasticMatrix(["x"], ["u", "v"], [[0.25, 0.75]])
    with pytest.raises(ValueError):
        StochasticMatrix(["x"], ["u", "v"], [[0.5, 0.6]])
    with pytest.raises(ValueError):
        StochasticMatrix(["x"], ["u", "v"], [[-0.2, 1.2]])
    with pytest.raises(ValueError):
        StochasticMatrix(["x"], ["u"], [[1.0], [1.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_stochastic_matrix_rejects_non_finite_entries(bad):
    # NaN passes every comparison-based check (min, row sums), so it is
    # refused on its own
    with pytest.raises(ValueError, match="must be finite"):
        StochasticMatrix(["x", "w"], ["u", "v"], [[bad, 1.0], [1.0, 0.0]])


def test_stochastic_matrix_lookup_by_label():
    nu = StochasticMatrix(["x", "w"], ["u", "v"], [[0.25, 0.75], [1.0, 0.0]])
    assert nu["x", "v"] == 0.75
    assert nu["w", "u"] == 1.0
    with pytest.raises(UnknownLabel, match="^no row labeled 'z'$"):
        nu["z", "u"]
    with pytest.raises(UnknownLabel, match="^no column labeled 'z'$"):
        nu["x", "z"]


def test_effect_lookup_by_label():
    P = Povm(2, [("a", 0.5 * np.eye(2)), ("b", 0.25 * np.eye(2)), ("a", 0.25 * np.eye(2))])
    assert P.effect("b")[0, 0] == 0.25
    assert P.effect("a")[0, 0] == 0.5  # a repeated label finds its first outcome
    with pytest.raises(UnknownLabel, match="^no outcome labeled 'c'$"):
        P.effect("c")


def test_apply_identity_permutation():
    A = random_povm(3, 2, seed=0)
    nu = StochasticMatrix(A.labels, A.labels, np.eye(3))
    assert max_effect_distance(apply_post_processing(A, nu), A) < 1e-12


def test_apply_merge_to_single_outcome():
    A = basis_pvm(2)
    nu = StochasticMatrix(A.labels, ["all"], [[1.0], [1.0]])
    B = apply_post_processing(A, nu)
    assert B.labels == ["all"]
    assert frob_dist(B.effect("all"), np.eye(2)) < 1e-12


def test_apply_constant_rows_give_trivial():
    A = random_povm(3, 2, seed=1)
    p = random_distribution(2, seed=2)
    nu = StochasticMatrix(A.labels, ["0", "1"], np.tile(p, (3, 1)))
    B = apply_post_processing(A, nu)
    q = is_trivial(B)
    assert q is not None
    assert np.linalg.norm(q - p) < 1e-12


def test_apply_requires_matching_rows():
    A = random_povm(2, 2, seed=3)
    nu = StochasticMatrix(["p", "q"], ["u"], [[1.0], [1.0]])
    with pytest.raises(LabelMismatch):
        apply_post_processing(A, nu)


def test_find_identity_feasible():
    A = random_povm(3, 2, seed=4)
    nu = find_post_processing(A, A)
    assert nu is not None
    assert max_effect_distance(apply_post_processing(A, nu), A) < 1e-9


def test_find_reaches_trivial():
    for seed in range(10):
        A = random_povm(2 + seed % 3, 2 + seed % 2, seed)
        p = random_distribution(2, seed + 90)
        T = trivial_povm(p, A.dim)
        nu = find_post_processing(A, T)
        assert nu is not None
        assert max_effect_distance(apply_post_processing(A, nu), T) < 1e-9


def test_find_rejects_weight_mismatched_pair():
    A, B = proportional_inequivalent_pair()
    assert find_post_processing(A, B) is None
    assert find_post_processing(B, A) is None


def test_find_rejects_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        find_post_processing(random_povm(2, 2, 0), random_povm(2, 3, 0))


def test_max_effect_distance_rejects_dim_mismatch():
    # equal labels, so broadcasting would subtract a 1x1 effect from a 2x2 one
    with pytest.raises(DimensionMismatch):
        max_effect_distance(Povm(1, [("a", [[1.0]])]), Povm(2, [("a", np.eye(2))]))


def test_find_soundness_and_completeness():
    # forward-construct B = nu(A), then recover some feasible post-processing
    for seed in range(500):
        nA = 2 + seed % 3
        nB = 1 + seed % 3
        d = 2 + seed % 2
        A = random_povm(nA, d, seed)
        nu = random_stochastic(A.labels, [str(i) for i in range(nB)], seed + 1)
        B = apply_post_processing(A, nu)
        found = find_post_processing(A, B)
        assert found is not None
        assert max_effect_distance(apply_post_processing(A, found), B) < 1e-9


def test_find_empty_povm_is_never_reached_nor_reaches():
    A = random_povm(3, 2, seed=1)
    empty = Povm(2, [])
    assert find_post_processing(empty, A) is None
    assert find_post_processing(A, empty) is None


def test_find_with_extra_zero_effect_both_ways():
    A = random_povm(3, 2, seed=2)
    padded = Povm(2, A.outcomes + [("zero", np.zeros((2, 2)))])
    assert find_post_processing(padded, A) is not None
    assert find_post_processing(A, padded) is not None


def test_find_one_outcome_target():
    A = random_povm(3, 2, seed=3)
    whole = Povm(2, [("all", np.eye(2))])
    nu = find_post_processing(A, whole)
    assert nu is not None
    assert np.allclose(nu.entries, 1.0)
    assert find_post_processing(whole, A) is None


def test_find_on_dimension_one():
    split = Povm(1, [("a", [[0.3]]), ("b", [[0.7]])])
    whole = Povm(1, [("all", [[1.0]])])
    assert find_post_processing(split, whole) is not None
    nu = find_post_processing(whole, split)
    assert nu is not None
    assert np.allclose(nu.entries, [[0.3, 0.7]], rtol=0.0, atol=1e-12)


def test_find_coarse_graining_at_dimension_16():
    # an exact coarse-graining; with feas_tol = (n_a + n_b)·eq_abs the
    # simplex stopped where the replay missed B by 1.6e-9 and answered "no"
    A = random_povm(32, 16, 3)
    rows = [random_distribution(16, 100 + i) for i in range(32)]
    B = apply_post_processing(A, StochasticMatrix(A.labels, [str(y) for y in range(16)], rows))
    nu = find_post_processing(A, B)
    assert nu is not None
    assert max_effect_distance(apply_post_processing(A, nu), B) <= DEFAULT_TOL.eq_abs


def _forbid_lp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the LP ran on linearly independent effects")

    monkeypatch.setattr(instrorder.povm, "solve_nonnegative", refuse)


def _count_lp(monkeypatch):
    calls = []
    real = instrorder.povm.solve_nonnegative

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(instrorder.povm, "solve_nonnegative", counted)
    return calls


def _coords(A):
    # d² × n_a coordinates of A's effects, Frobenius-isometric
    return np.array([_vec_hermitian(E) for E in A.effects]).T


def test_full_span_no_runs_no_lp(monkeypatch):
    # four independent qubit effects span every Hermitian matrix, so an
    # independent B lies in the span and only the sign of nu* can say no
    A = random_povm(4, 2, seed=1)
    B = random_povm(3, 2, seed=2)
    assert np.linalg.matrix_rank(_coords(A)) == 4
    assert find_post_processing_lp(A, B) is None
    _forbid_lp(monkeypatch)
    assert find_post_processing(A, B) is None


def test_relabel_with_dust_gives_zero_one_matrix_without_lp(monkeypatch):
    # nu* of an exact relabeling carries ±1e-15 dust where nu has zeros;
    # clipping it must still replay, so the LP never runs
    A = random_povm(9, 3, seed=1)
    B = relabel(A, lambda label: int(label) % 3)
    nu_star = np.linalg.lstsq(_coords(A), _coords(B), rcond=None)[0]
    assert -1e-12 < nu_star.min() < 0.0
    _forbid_lp(monkeypatch)
    nu = find_post_processing(A, B)
    assert nu is not None
    expected = np.array([[float(int(x) % 3 == y) for y in range(3)] for x in A.labels])
    assert np.allclose(nu.entries, expected, rtol=0.0, atol=1e-12)
    assert max_effect_distance(apply_post_processing(A, nu), B) <= DEFAULT_TOL.eq_abs


def _pushed_below_zero(A, eps, seed):
    # B = nu'(A) with nu' stochastic except nu'[0, 0] = -eps; every B(y)
    # stays positive semidefinite for small eps
    nu = random_stochastic(A.labels, ["0", "1", "2"], seed).entries
    nu[0, 1] += nu[0, 0] + eps
    nu[0, 0] = -eps
    effects = np.einsum("xy,xij->yij", nu, np.array(A.effects))
    assert min(np.linalg.eigvalsh(E).min() for E in effects) >= 0.0
    return Povm(A.dim, [(str(y), E) for y, E in enumerate(effects)])


def test_entry_just_below_zero_is_answered_and_replayed(monkeypatch):
    # min nu* lies in (-2·eq_abs/s_min, 0): not a certain "no", so the
    # clipped nu* is replayed, and the LP decides when that replay fails
    eq = DEFAULT_TOL.eq_abs
    A = random_povm(4, 2, seed=5)
    s_min = np.linalg.svd(_coords(A), compute_uv=False)[-1]
    norm0 = np.linalg.norm(A.effects[0])
    calls = _count_lp(monkeypatch)

    # clipping moves each replayed effect by about eps·‖A(0)‖_F ≤ eq / 10
    B = _pushed_below_zero(A, 0.1 * eq / norm0, seed=6)
    nu = find_post_processing(A, B)
    assert calls == []
    assert nu is not None
    assert max_effect_distance(apply_post_processing(A, nu), B) <= eq

    # here clipping moves B(0) by 1.5·eq·‖A(0)‖_F / s_min > eq, so an LP
    # decides: the one-outcome relaxation, which already finds B(0) out of
    # reach
    eps = 1.5 * eq / s_min
    assert -2.0 * eq / s_min < -eps
    B = _pushed_below_zero(A, eps, seed=6)
    nu = find_post_processing(A, B)
    assert len(calls) == 1
    assert (nu is None) == (find_post_processing_lp(A, B) is None)
    if nu is not None:
        assert max_effect_distance(apply_post_processing(A, nu), B) <= eq


def test_find_logs_how_it_decided(caplog, monkeypatch):
    # one DEBUG record per question on instrorder.povm; the LP routes are
    # pinned on dependent effects in test_feasibility.py
    caplog.set_level(logging.DEBUG, logger="instrorder.povm")
    A = random_povm(4, 2, seed=1)  # independent, spanning every qubit effect
    coarse = apply_post_processing(A, random_stochastic(A.labels, ["0", "1", "2"], 2))
    cases = [
        (random_povm(2, 2, seed=3), A, "span", False),  # two effects span a plane
        (A, coarse, "direct", True),
        (A, random_povm(3, 2, seed=2), "direct", False),
    ]
    for source, target, route, answer in cases:
        caplog.clear()
        assert (find_post_processing(source, target) is not None) == answer
        (record,) = [r for r in caplog.records if r.name == "instrorder.povm"]
        assert (record.levelno, record.route, record.answer, record.shape) == (logging.DEBUG, route, answer, None)
    # a clipped nu* that fails its replay goes on to the LP routes; here
    # B(0) alone is out of reach, so the one-outcome relaxation says no
    calls = _count_lp(monkeypatch)
    s_min = np.linalg.svd(_coords(A), compute_uv=False)[-1]
    caplog.clear()
    assert find_post_processing(A, _pushed_below_zero(A, 1.5 * DEFAULT_TOL.eq_abs / s_min, seed=6)) is None
    (record,) = [r for r in caplog.records if r.name == "instrorder.povm"]
    assert (record.route, record.answer, record.shape) == ("relaxation", False, (9, 13))
    assert calls == [(9, 13)]  # r + n_a + 1 rows, 2·n_a + r + 1 columns
    assert logging.getLogger("instrorder.povm").handlers == []


def test_find_rejects_zero_target_without_nan():
    # nu* = 0 clears the sign test, and its clipped rows sum to 0: they
    # must not be renormalized into NaN entries that slip past the replay
    A = random_povm(4, 2, seed=1)
    zero = Povm(2, [("z", np.zeros((2, 2)))])
    assert find_post_processing(A, zero) is None


def test_relabel_bijection():
    A = random_povm(3, 2, seed=7)
    B = relabel(A, {"0": "c", "1": "a", "2": "b"})
    assert sorted(B.labels) == ["a", "b", "c"]
    assert frob_dist(B.effect("c"), A.effect("0")) < 1e-15


def test_relabel_constant_map():
    A = random_povm(3, 2, seed=8)
    B = relabel(A, lambda x: "all")
    assert B.labels == ["all"]
    assert frob_dist(B.effect("all"), np.eye(2)) < 1e-9


def test_relabel_merges_named_outcomes():
    A = basis_pvm(3)
    B = relabel(A, {"0": "low", "1": "low", "2": "high"})
    assert frob_dist(B.effect("low"), np.diag([1.0, 1.0, 0.0])) < 1e-15
    assert frob_dist(B.effect("high"), np.diag([0.0, 0.0, 1.0])) < 1e-15


def test_relabel_matches_delta_post_processing():
    A = random_povm(4, 2, seed=9)
    f = {"0": "u", "1": "v", "2": "u", "3": "v"}
    entries = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    nu = StochasticMatrix(A.labels, ["u", "v"], entries)
    assert max_effect_distance(relabel(A, f), apply_post_processing(A, nu)) < 1e-15


def test_relabel_requires_total_map():
    with pytest.raises(LabelMismatch):
        relabel(random_povm(2, 2, 0), {"0": "a"})


@pytest.mark.parametrize("seed", range(30))
def test_relabel_matches_pooling_reference(seed):
    # only the summation order differs: tensordot against 0/1 rows
    n, d, m = 2 + seed % 9, 1 + seed % 4, 1 + seed % 3
    A = random_povm(n, d, seed)
    maps = [
        lambda x: int(x) % m,
        {x: str((n - i) % m) for i, x in enumerate(A.labels)},
        lambda x: "all",
        {x: f"r{x}" for x in A.labels},
    ]
    for f in maps:
        B, ref = relabel(A, f), relabel_pooled(A, f)
        assert B.labels == ref.labels
        assert max_effect_distance(B, ref) <= 1e-15


def test_relabel_without_outcomes_is_empty():
    B = relabel(Povm(2, []), {})
    assert B.labels == [] and B.effects.shape == (0, 2, 2)


def test_is_trivial_examples():
    p = is_trivial(Povm(2, [("0", 0.5 * np.eye(2)), ("1", 0.5 * np.eye(2))]))
    assert p is not None and np.allclose(p, [0.5, 0.5])
    assert is_trivial(basis_pvm(2)) is None
    q = is_trivial(trivial_povm([0.3, 0.7], 3))
    assert q is not None and np.allclose(q, [0.3, 0.7])


def test_indecomposable_examples():
    assert is_indecomposable_povm(basis_pvm(2))
    assert not is_indecomposable_povm(trivial_povm([0.5, 0.5], 2))
    A, _ = proportional_inequivalent_pair()
    assert is_indecomposable_povm(A)


def test_indecomposable_ignores_zero_effects():
    A = Povm(2, [("0", np.diag([1.0, 0.0])), ("z", np.zeros((2, 2))), ("1", np.diag([0.0, 1.0]))])
    assert is_indecomposable_povm(A)


def test_minimal_sufficient_independent_input():
    A = random_povm(3, 3, seed=11)
    R, g = minimal_sufficient(A)
    assert R.labels == A.labels
    assert max_effect_distance(R, A) < 1e-12
    assert all(abs(g.weights[x] - 1.0) < 1e-12 for x in A.labels)


def test_minimal_sufficient_merges_proportional():
    P0 = np.diag([1.0, 0.0])
    P1 = np.diag([0.0, 1.0])
    A = Povm(2, [("a", 0.5 * P0), ("b", 0.5 * P0), ("c", P1)])
    R, g = minimal_sufficient(A)
    assert len(R) == 2
    assert g.class_of["a"] == g.class_of["b"]
    assert abs(g.weights["a"] - 0.5) < 1e-12
    assert abs(g.weights["b"] - 0.5) < 1e-12
    assert abs(g.weights["c"] - 1.0) < 1e-12
    assert frob_dist(R.effect(g.class_of["a"]), P0) < 1e-12


def test_minimal_sufficient_collapses_trivial():
    T = trivial_povm([0.25, 0.25, 0.5], 2)
    R, g = minimal_sufficient(T)
    assert len(R) == 1
    assert frob_dist(R.effects[0], np.eye(2)) < 1e-12


def test_minimal_sufficient_drops_zero_effects():
    A = Povm(2, [("0", np.eye(2) * 0.5), ("z", np.zeros((2, 2))), ("1", np.eye(2) * 0.5)])
    R, g = minimal_sufficient(A)
    assert "z" in g.dropped
    assert len(R) == 1  # both halves of identity merge


@pytest.mark.parametrize("order", [("a", "b", "c"), ("a", "c", "b"), ("c", "a", "b")])
def test_minimal_sufficient_merges_a_chain(order):
    # b is within eq_abs of a and of c after trace normalization, a is not
    # within eq_abs of c; b links them wherever it stands, and the class
    # keeps the label of its first member
    E = np.diag([0.3, 0.2]).astype(complex)
    D = 3e-10 * np.diag([1.0, -1.0])
    chain = {"a": E, "b": E + D, "c": E + 2 * D}
    normed = {x: M / np.trace(M).real for x, M in chain.items()}
    assert frob_dist(normed["a"], normed["b"]) <= DEFAULT_TOL.eq_abs
    assert frob_dist(normed["b"], normed["c"]) <= DEFAULT_TOL.eq_abs
    assert frob_dist(normed["a"], normed["c"]) > DEFAULT_TOL.eq_abs
    A = Povm(2, [(x, chain[x]) for x in order] + [("r", np.eye(2) - sum(chain.values()))])
    R, g = minimal_sufficient(A)
    assert R.labels == [order[0], "r"]
    assert g.class_of == {order[0]: order[0], order[1]: order[0], order[2]: order[0], "r": "r"}
    assert frob_dist(R.effect(order[0]), sum(chain.values())) < 1e-15
    assert abs(sum(g.weights[x] for x in order) - 1.0) < 1e-15
    assert not g.dropped


def test_minimal_sufficient_idempotent_and_reconstructs():
    for seed in range(40):
        A = random_povm(2 + seed % 4, 2 + seed % 3, seed)
        R, g = minimal_sufficient(A)
        # reconstruction A(x) = c_x * R([x])
        for x in A.labels:
            assert frob_dist(A.effect(x), g.weights[x] * R.effect(g.class_of[x])) < 1e-9
        R2, g2 = minimal_sufficient(R)
        assert R2.labels == R.labels
        assert all(abs(g2.weights[x] - 1.0) < 1e-12 for x in R.labels)
        # pairwise linear independence of the reduced effects
        effs = [E / np.trace(E).real for E in R.effects]
        for i in range(len(effs)):
            for j in range(i + 1, len(effs)):
                assert frob_dist(effs[i], effs[j]) > 1e-9


def test_equivalent_to_own_minimal_form():
    for seed in range(15):
        A = random_povm(2 + seed % 3, 2, seed + 40)
        R, _ = minimal_sufficient(A)
        assert povm_equivalent(A, R) is not None


def test_equivalent_under_bijective_relabeling():
    A = random_povm(3, 2, seed=12)
    B = relabel(A, {"0": "x", "1": "y", "2": "z"})
    out = povm_equivalent(A, B)
    assert out is not None
    nu, mu = out
    assert max_effect_distance(apply_post_processing(B, nu), A) < 1e-9
    assert max_effect_distance(apply_post_processing(A, mu), B) < 1e-9
    # permutation matrices: single unit entry per row
    assert np.allclose(np.sort(np.asarray(nu.entries), axis=1)[:, -1], 1.0)


def test_equivalent_after_outcome_split():
    A = random_povm(3, 2, seed=13)
    split = [("0a", 0.5 * A.effect("0")), ("0b", 0.5 * A.effect("0"))]
    B = Povm(2, split + [(x, A.effect(x)) for x in A.labels[1:]])
    out = povm_equivalent(A, B)
    assert out is not None
    nu, mu = out
    assert max_effect_distance(apply_post_processing(B, nu), A) < 1e-9
    assert max_effect_distance(apply_post_processing(A, mu), B) < 1e-9


def test_equivalence_spreads_a_vanishing_outcome_uniformly():
    # nu's rows are B's outcomes and mu's are A's: the row of a vanishing
    # effect carries no information, so its mass is spread over every column
    A = random_povm(3, 2, seed=14)
    B = Povm(2, [("z", np.zeros((2, 2)))] + [(x + "b", E) for x, E in A.outcomes])
    nu, mu = povm_equivalent(A, B)
    assert np.array_equal(nu.entries[0], np.full(len(A), 1.0 / len(A)))
    assert np.array_equal(nu.entries[1:], np.eye(len(A)))
    assert np.array_equal(mu.entries, np.eye(len(A), len(B), 1))
    mu2, nu2 = povm_equivalent(B, A)
    assert np.array_equal(mu2.entries, mu.entries) and np.array_equal(nu2.entries, nu.entries)


def test_equivalence_rejects_weight_mismatch():
    A, B = proportional_inequivalent_pair()
    assert povm_equivalent(A, B) is None


def test_trivial_stays_trivial_under_post_processing():
    for seed in range(10):
        p = random_distribution(3, seed)
        T = trivial_povm(p, 2)
        mu = random_stochastic(T.labels, ["a", "b"], seed + 5)
        assert is_trivial(apply_post_processing(T, mu)) is not None


def test_trivial_povm_labels():
    T = trivial_povm([0.5, 0.5], 2, labels=["hi", "lo"])
    assert T.labels == ["hi", "lo"]
    assert validate_povm(T).ok


def test_nan_distance_propagates_through_the_maximum():
    # Python's max keeps whichever of (d, NaN) came first; the replay
    # distance must be NaN wherever the NaN effect sits
    A = basis_pvm(2)
    for bad in A.labels:
        B = Povm(2, [(x, np.full((2, 2), np.nan) if x == bad else E) for x, E in A.outcomes])
        assert np.isnan(max_effect_distance(A, B))


def test_nan_replay_distance_is_not_accepted(monkeypatch):
    A = random_povm(3, 2, seed=13)
    B = relabel(A, {"0": "a", "1": "a", "2": "b"})
    assert find_post_processing(A, B) is not None
    assert povm_equivalent(A, A) is not None
    monkeypatch.setattr(instrorder.povm, "max_effect_distance", lambda P, Q: float("nan"))
    assert find_post_processing(A, B) is None
    assert povm_equivalent(A, A) is None


def test_effects_are_copied_from_the_caller():
    E = np.eye(2, dtype=complex) / 2
    P = Povm(2, [("a", E), ("b", E.copy())])
    Q = Povm(2, [("a", E.copy()), ("b", E.copy())])
    E[0, 0] = 5
    assert P.effects[0, 0, 0] == 0.5
    assert max_effect_distance(P, Q) == 0.0
    assert validate_povm(P).ok


def test_effects_are_one_read_only_array():
    P = Povm(2, [("a", np.asfortranarray(np.diag([1.0, 0.0]))), ("b", np.diag([0.0, 1.0]))])
    assert P.effects.shape == (2, 2, 2)
    assert P.effects.dtype == complex
    assert P.effects.flags.c_contiguous
    with pytest.raises(ValueError):
        P.effects[0][0, 0] = 1
    with pytest.raises(ValueError):
        P.effect("b")[1, 1] = 0


def test_outcomes_is_a_fresh_list_of_views():
    P = basis_pvm(2)
    pairs = P.outcomes
    pairs.append(("extra", np.eye(2)))
    assert len(P.outcomes) == 2
    assert all(np.shares_memory(E, P.effects) for _, E in P.outcomes)


def test_wrong_shaped_effect_raises_naming_its_label():
    with pytest.raises(DimensionMismatch, match=r"effect 'big' has shape \(3, 3\), expected \(2, 2\)"):
        Povm(2, [("a", np.eye(2)), ("big", np.eye(3))])
    with pytest.raises(DimensionMismatch, match="'row'"):
        Povm(1, [("row", [0.3, 0.7])])
    with pytest.raises(DimensionMismatch, match="negative"):
        Povm(-1, [])


def test_zero_dimension_povm_validates_to_the_dimension_violation():
    report = validate_povm(Povm(0, []))
    assert not report.ok
    assert report.violations == ["dimension: must be a positive integer"]


def test_zero_outcome_povm_has_an_empty_stack():
    for d in (1, 3):
        P = Povm(d, [])
        assert P.effects.shape == (0, d, d)
        assert len(P) == 0 and P.labels == [] and P.outcomes == []
        assert validate_povm(P).violations == [
            f"completeness: effects sum off identity by {np.sqrt(d):.3e}"
        ]


def test_vec_hermitian_of_a_stack_is_the_stack_of_coordinates():
    A = random_povm(5, 3, seed=21)
    rows = np.array([_vec_hermitian(E) for E in A.effects])
    assert np.array_equal(_vec_hermitian(A.effects), rows)
    assert np.allclose(np.linalg.norm(rows, axis=1), np.linalg.norm(A.effects, axis=(1, 2)))
