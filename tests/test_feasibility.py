import logging

import numpy as np
import pytest
import scipy.optimize

from instrorder import Povm, apply_post_processing, feasibility, povm, random_povm, relabel
from instrorder.errors import SolverError
from instrorder.feasibility import solve_nonnegative
from instrorder.linalg import DEFAULT_TOL
from instrorder.povm import _vec_hermitian
from instrorder.randgen import _gaussians, _uniforms

from helpers import find_post_processing_lp, random_stochastic


def _oracle_feasible(A, b):
    # independent route: scipy linear programming with x >= 0 bounds
    res = scipy.optimize.linprog(
        c=np.zeros(A.shape[1]),
        A_eq=A,
        b_eq=b,
        bounds=[(0.0, None)] * A.shape[1],
        method="highs",
    )
    return res.status == 0


def test_solves_constructed_feasible_systems():
    for seed in range(120):
        m = 2 + seed % 4
        n = m + seed % 5
        A = _gaussians(seed, m * n).reshape(m, n)
        x = _uniforms(seed + 10_000, n)
        if seed % 3 == 0:
            x[: n // 2] = 0.0  # boundary solutions too
        b = A @ x
        y = solve_nonnegative(A, b)
        assert y is not None
        assert y.min() >= 0.0
        assert np.linalg.norm(A @ y - b) < 1e-8
        assert _oracle_feasible(A, b)


def test_rejects_cone_infeasible_systems():
    for seed in range(60):
        m = 2 + seed % 3
        n = 2 + seed % 4
        A = _uniforms(seed, m * n).reshape(m, n)  # nonnegative matrix
        b = _uniforms(seed + 5_000, m)
        b[seed % m] = -1.0 - b[seed % m]  # no x >= 0 can hit a negative entry
        assert solve_nonnegative(A, b) is None
        assert not _oracle_feasible(A, b)


def test_verdict_matches_oracle_on_mixed_instances():
    agree = 0
    for seed in range(150):
        m = 2 + seed % 4
        n = 1 + seed % 6
        A = _gaussians(seed + 100, m * n).reshape(m, n)
        if seed % 2 == 0:
            b = A @ _uniforms(seed + 200, n)
        else:
            b = _gaussians(seed + 300, m)
        ours = solve_nonnegative(A, b) is not None
        oracle = _oracle_feasible(A, b)
        if ours == oracle:
            agree += 1
        else:
            # tolerate disagreement only on numerically marginal instances
            res = scipy.optimize.linprog(
                c=np.ones(n),
                A_eq=A,
                b_eq=b,
                bounds=[(0.0, None)] * n,
                method="highs",
            )
            assert res.status != 0 or np.linalg.norm(A @ res.x - b) > 1e-10
    assert agree >= 148


def test_deterministic():
    A = _gaussians(7, 12).reshape(3, 4)
    b = A @ _uniforms(8, 4)
    y1 = solve_nonnegative(A, b)
    y2 = solve_nonnegative(A, b)
    assert np.array_equal(y1, y2)


def test_zero_system():
    y = solve_nonnegative(np.zeros((2, 3)), np.zeros(2))
    assert y is not None
    assert np.allclose(y, 0.0)
    assert solve_nonnegative(np.zeros((2, 3)), np.array([1.0, 0.0])) is None


def test_single_variable():
    A = np.array([[2.0], [4.0]])
    y = solve_nonnegative(A, np.array([1.0, 2.0]))
    assert y is not None and abs(y[0] - 0.5) < 1e-12
    assert solve_nonnegative(A, np.array([1.0, 3.0])) is None


def test_iteration_limit_raises_solver_error(monkeypatch):
    monkeypatch.setattr(feasibility, "_MAX_ITER", 0)
    A = np.array([[1.0, 2.0], [3.0, 1.0]])
    with pytest.raises(SolverError):
        solve_nonnegative(A, A @ np.array([0.5, 0.25]))


@pytest.mark.parametrize(
    "A, b, vertex",
    [
        # two rows tie at the minimum ratio; the larger column entry leaves
        # (pivoting on the smaller one ends at [2, 0.5, 0.5, 0])
        (
            [[1, 1, 1, 1], [0, 2, 0, 1], [1, 0, 0, 2]],
            [3, 1, 2],
            [0, 0, 2, 1],
        ),
        # ratio and column entry tie too; the smaller basis index leaves
        # (the larger one ends at [0, 1.5, 0, 1])
        (
            [[2, 2, 0, 0], [0, 2, 1, 0], [1, 0, 0, 1]],
            [3, 3, 1],
            [1, 0.5, 2, 0],
        ),
    ],
    ids=["largest-entry", "smallest-index"],
)
def test_ratio_test_tie_breaks(A, b, vertex):
    x = solve_nonnegative(np.array(A, dtype=float), np.array(b, dtype=float))
    assert np.allclose(x, vertex, rtol=0.0, atol=1e-12)


def _full_tableau_solve(A, b, feas_tol=1e-9, pivot_tol=1e-11, bland_after=None):
    # reference: the tableau [B⁻¹A | B⁻¹ | B⁻¹b] with the artificial block
    # kept and updated, and the pivot rules written as loops: each row's
    # first slack column (its one nonzero entry positive, above pivot_tol)
    # starts basic, the other rows start artificial; the most negative
    # reduced cost enters (first on a tie) until bland_after (default m)
    # pivots in a row had minimum ratio 0, Bland's rule from then on
    m, n = A.shape
    bland_after = m if bland_after is None else bland_after
    flip = np.where(b < 0, -1.0, 1.0)
    A, b = A * flip[:, None], b * flip
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n], T[:m, n : n + m], T[:m, -1] = A, np.eye(m), b
    basis = list(range(n, n + m))
    for i in range(m):
        for j in range(n):
            if A[i, j] > pivot_tol and np.count_nonzero(A[:, j]) == 1:
                T[i] /= A[i, j]
                T[m, n + i] = 1.0  # the reduced cost of a nonbasic artificial
                basis[i] = j
                break
    artificial = [i for i in range(m) if basis[i] >= n]
    T[m, :n], T[m, -1] = -A[artificial].sum(axis=0), -b[artificial].sum()
    degenerate, bland = 0, False
    while -T[m, -1] > feas_tol:
        bland = bland or degenerate >= bland_after
        negative = [j for j in range(n) if T[m, j] < -pivot_tol]
        if not negative:
            break
        enter = negative[0] if bland else min(negative, key=lambda j: T[m, j])
        col = T[:m, enter]
        eligible = col > pivot_tol
        rhs_col = np.clip(T[:m, -1], 0.0, None)
        ratios = np.where(eligible, rhs_col / np.where(eligible, col, 1.0), np.inf)
        degenerate = degenerate + 1 if ratios.min() == 0.0 else 0
        slack = ratios.min() + 1e-13 * (1.0 + ratios.min())
        near = [i for i in range(m) if eligible[i] and ratios[i] <= slack]
        if bland:
            leave = min(near, key=lambda i: basis[i])
        else:
            leave = max(near, key=lambda i: (col[i], -basis[i]))
        T[leave] /= T[leave, enter]
        other = T[:, enter].copy()
        other[leave] = 0.0
        T -= np.outer(other, T[leave])
        basis[leave] = enter
    if -T[m, -1] > feas_tol:
        return None
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = T[i, -1]
    return np.clip(x, 0.0, None)


def _degenerate_system(m):
    # b = e₁ keeps almost every basic value at zero; columns 0 and m-1 are
    # e₁ and 2e₁, two vertices x₀ = 1 and x_{m-1} = 1/2.  Column 0 is the
    # slack column of row 0, so the slack start is already the vertex x₀ = 1
    # and takes no pivot
    A = _gaussians(0, m * m).reshape(m, m)
    A[:, 0] = A[:, -1] = 0.0
    A[0, 0], A[0, -1] = 1.0, 2.0
    b = np.zeros(m)
    b[0] = 1.0
    return A, b


def _paired_degenerate_system(m):
    # the same b = e₁, but columns 0 and m-1 are e₁ + e₂ and e₁ - e₂, so no
    # column is a slack column and x₀ = x_{m-1} = 1/2 is reached only after
    # a long run of degenerate pivots: 46 in a row for m = 64, under the
    # m that starts Bland's rule
    A = _gaussians(0, m * m).reshape(m, m)
    A[:, 0] = A[:, -1] = 0.0
    A[0, 0] = A[0, -1] = A[1, 0] = 1.0
    A[1, -1] = -1.0
    b = np.zeros(m)
    b[0] = 1.0
    return A, b


def _tableau_systems():
    systems = []
    for seed in range(240):
        m = 2 + seed % 6
        n = 1 + seed % 9
        if seed % 3 == 0:  # small integers make ratio and size ties common
            A = np.floor(3.0 * _uniforms(seed, m * n)).reshape(m, n)
            b = np.floor(3.0 * _uniforms(seed + 1, m))
        else:
            A = _gaussians(seed, m * n).reshape(m, n)
            b = A @ _uniforms(seed + 1, n) if seed % 3 == 1 else _gaussians(seed + 2, m)
        systems.append((A, b))
    return systems


def test_matches_full_tableau_bitwise():
    for A, b in _tableau_systems():
        x = solve_nonnegative(A, b)
        ref = _full_tableau_solve(A, b)
        assert (x is None) == (ref is None)
        if ref is not None:
            assert x.tobytes() == ref.tobytes()
    A, b = _degenerate_system(64)
    assert solve_nonnegative(A, b).tobytes() == _full_tableau_solve(A, b).tobytes()
    A, b = _paired_degenerate_system(64)
    assert solve_nonnegative(A, b).tobytes() == _full_tableau_solve(A, b).tobytes()


@pytest.mark.parametrize(
    "A, b, expected",
    [
        (np.zeros((2, 0)), np.zeros(2), np.zeros(0)),  # n = 0, b = 0: the empty x
        (np.zeros((2, 0)), np.array([1.0, 0.0]), None),  # n = 0, b ≠ 0: infeasible
        (np.zeros((0, 3)), np.zeros(0), np.zeros(3)),  # m = 0: nothing to satisfy
        (np.zeros((0, 0)), np.zeros(0), np.zeros(0)),
    ],
    ids=["no-columns", "no-columns-infeasible", "no-rows", "empty"],
)
def test_edge_shapes(A, b, expected):
    x = solve_nonnegative(A, b)
    ref = _full_tableau_solve(A, b)
    if expected is None:
        assert x is None and ref is None
    else:
        assert x.shape == expected.shape and x.dtype == np.float64
        assert x.tobytes() == expected.tobytes() == ref.tobytes()


def _systems_of(A, B, monkeypatch):
    # the (M, rhs, feas_tol) that find_post_processing hands to the solver:
    # the one-outcome relaxation when B has three or more outcomes, then the
    # full LP unless the relaxation refuted the pair (None for a system the
    # search did not build)
    systems = []

    def record(M, rhs, feas_tol):
        systems.append((M.copy(), rhs.copy(), feas_tol))
        return solve_nonnegative(M, rhs, feas_tol)

    monkeypatch.setattr(povm, "solve_nonnegative", record)
    nu = povm.find_post_processing(A, B)
    relaxation = systems.pop(0) if len(B) >= 3 else None
    full = systems.pop(0) if systems else None
    assert not systems
    return nu, relaxation, full


def _rank(A):
    return int(np.linalg.matrix_rank(_vec_hermitian(A.effects)))


def _in_span_no(A, n_b, seed):
    # in the span but no coarse-graining: one entry of a stochastic ν pushed
    # below zero by half of what keeps B(0) positive semidefinite
    nu = random_stochastic(A.labels, [str(y) for y in range(n_b)], seed).entries
    rest = sum(nu[x, 0] * E for x, E in enumerate(A.effects) if x > 0)
    room = np.linalg.eigvalsh(rest).min() / np.linalg.eigvalsh(A.effects[0]).max()
    shift = nu[0, 0] + 0.5 * room
    nu[0, 0] -= shift
    nu[0, 1] += shift
    effects = np.einsum("xy,xij->yij", nu, np.array(A.effects))
    assert min(np.linalg.eigvalsh(E).min() for E in effects) >= 0.0
    return Povm(A.dim, [(str(y), E) for y, E in enumerate(effects)])


def _library_lps():
    # the route find_post_processing takes is the last value
    cases = []
    for d, n_a, n_b, seed in ((2, 16, 8, 11), (3, 12, 8, 12)):  # n_a > d²: dependent effects
        A = random_povm(n_a, d, seed)
        nu = random_stochastic(A.labels, [str(y) for y in range(n_b)], seed + 1)
        cases.append(pytest.param(A, apply_post_processing(A, nu), True, "lp", id=f"d={d}-{n_a}-{n_b}-yes"))
    A = random_povm(8, 2, 12)
    cases.append(pytest.param(A, _in_span_no(A, 4, 13), False, "relaxation", id="d=2-8-4-in-span-no"))
    return cases


def _pins_full_tableau(M, rhs, feas_tol, feasible):
    # the verdict matches the reference and HiGHS, and x matches the
    # reference to the bit
    x = solve_nonnegative(M, rhs, feas_tol)
    ref = _full_tableau_solve(M, rhs, feas_tol)
    assert (x is None) == (ref is None) == (not feasible) == (not _oracle_feasible(M, rhs))
    if feasible:
        assert x.tobytes() == ref.tobytes()
    # a looser feas_tol stops the search at an earlier basis, so the x read
    # there pins a prefix of the pivot path, "no" systems included
    stops = 0
    for loose in np.geomspace(0.5 * rhs.sum(), 1e-6, 12):
        x = solve_nonnegative(M, rhs, loose)
        ref = _full_tableau_solve(M, rhs, loose)
        assert (x is None) == (ref is None)
        if ref is not None:
            stops += 1
            assert x.tobytes() == ref.tobytes()
    assert stops >= 4


@pytest.mark.parametrize("A, B, reachable, route", _library_lps())
def test_matches_full_tableau_on_the_library_lps(A, B, reachable, route, monkeypatch):
    nu, relaxation, full = _systems_of(A, B, monkeypatch)
    assert (nu is not None) == reachable
    # the relaxation is feasible exactly when the full LP is built after it
    _pins_full_tableau(*relaxation, feasible=full is not None)
    assert (full is None) == (route == "relaxation")
    if full is not None:
        _pins_full_tableau(*full, feasible=reachable)


def _records(caplog):
    return [r for r in caplog.records if r.name == "instrorder.feasibility"]


def test_slack_columns_in_every_row_take_no_pivot(caplog):
    caplog.set_level(logging.DEBUG, logger="instrorder.feasibility")
    # columns 1 and 3 are slack columns of rows 1 and 0 (column 4 is one of
    # row 1 too, but column 1 comes first); b₂ < 0 flips row 2, so column 5
    # becomes its slack column and column 2, now negative there, is none
    A = np.array(
        [
            [1.0, 0.0, 0.0, 4.0, 0.0, 0.0],
            [2.0, 0.5, 0.0, 0.0, 3.0, 0.0],
            [-1.0, 0.0, 2.0, 0.0, 0.0, -5.0],
        ]
    )
    b = np.array([2.0, 1.0, -3.0])
    x = solve_nonnegative(A, b)
    (record,) = _records(caplog)
    assert (record.shape, record.artificials, record.pivots, record.bland) == ((3, 6), 0, 0, False)
    assert record.objective == 0.0
    assert x.tobytes() == _full_tableau_solve(A, b).tobytes()
    assert x.tobytes() == np.array([0.0, 2.0, 0.0, 0.5, 0.0, 0.6]).tobytes()


@pytest.mark.parametrize("A, B, reachable, route", _library_lps())
def test_library_lps_start_with_the_row_sum_rows_feasible(A, B, reachable, route, monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="instrorder.feasibility")
    nu, relaxation, full = _systems_of(A, B, monkeypatch)
    records = _records(caplog)
    r, n_a, n_b = _rank(A), len(A), len(B)
    # the relaxation: the bound rows have the columns s and the budget row
    # has t as slack columns, so only the r coordinate rows start artificial
    assert relaxation[0].shape == records[0].shape == (r + n_a + 1, 2 * n_a + r + 1)
    assert records[0].artificials == r
    if full is None:
        assert len(records) == 1
    else:
        # only the target blocks' rows start artificial: the last block is
        # left out, so each row-sum row has ν_{x, n_b-1} as its slack column
        assert len(records) == 2
        assert full[0].shape == records[1].shape == ((n_b - 1) * r + n_a, n_a * n_b)
        assert records[1].artificials == (n_b - 1) * r
        assert (records[1].objective <= 1e-9) == reachable == (nu is not None)
    for record in records:
        assert record.pivots > 0 and not record.bland
    assert (records[0].objective <= 1e-9) == (full is not None)


def _route_record(caplog):
    (record,) = [r for r in caplog.records if r.name == "instrorder.povm"]
    return record


@pytest.mark.parametrize("A, B, reachable, route", _library_lps())
def test_library_lps_log_their_route(A, B, reachable, route, caplog):
    caplog.set_level(logging.DEBUG, logger="instrorder.povm")
    nu = povm.find_post_processing(A, B)
    record = _route_record(caplog)
    r, n_a, n_b = _rank(A), len(A), len(B)
    if route == "relaxation":
        shape = (r + n_a + 1, 2 * n_a + r + 1)
    else:
        shape = ((n_b - 1) * r + n_a, n_a * n_b)
    assert (record.levelno, record.route, record.answer, record.shape) == (logging.DEBUG, route, reachable, shape)
    assert (nu is not None) == reachable
    assert f"by {route}, shape {shape}: answer {reachable}" in record.getMessage()
    assert logging.getLogger("instrorder.povm").handlers == []


def _perturbed_relabeling(A, n_b, seed):
    # B(y) = Σ_{x ≡ y mod n_b} A(x) + E_y with Hermitian E_y, Σ_y E_y = 0 and
    # max_y ‖E_y‖_F = 0.3·eq_abs: the relabeling replays within eq_abs, so
    # the right answer is "yes"
    d = A.dim
    G = _gaussians(seed, 2 * n_b * d * d).reshape(2, n_b, d, d)
    G = G[0] + 1j * G[1]
    E = G + G.conj().transpose(0, 2, 1)
    E -= E.mean(axis=0)
    E *= 0.3 * DEFAULT_TOL.eq_abs / np.linalg.norm(E, axis=(1, 2)).max()
    B = relabel(A, lambda x: int(x) % n_b)
    return Povm(d, [(label, effect + e) for (label, effect), e in zip(B.outcomes, E)])


def _dependent_pairs():
    # pairs on dependent effects (n_a > d²) of four kinds: a seeded
    # coarse-graining, an independent random B, an in-span "no" as in
    # _library_lps, and a relabeling perturbed within eq_abs
    pairs = []
    for seed in range(8):
        for d, n_a, n_b in ((2, 6, 2), (2, 6, 3), (2, 8, 4), (2, 16, 8), (3, 11, 5), (3, 12, 8)):
            A = random_povm(n_a, d, 1000 * seed + 7)
            nu = random_stochastic(A.labels, [str(y) for y in range(n_b)], seed + 1)
            pairs.append((A, apply_post_processing(A, nu)))
            pairs.append((A, random_povm(n_b, d, 1000 * seed + 8)))
            pairs.append((A, _in_span_no(A, n_b, seed + 2)))
            pairs.append((A, _perturbed_relabeling(A, n_b, seed + 3)))
    return pairs


def test_relaxation_keeps_the_always_lp_answers(monkeypatch, caplog):
    # every answer, and every "yes" ν to the bit, is the always-LP
    # reference's, and every "no" of the relaxation is one the full LP gives
    # as well, with an objective above feas_tol, and one HiGHS confirms
    caplog.set_level(logging.DEBUG, logger="instrorder")
    routes = set()
    for A, B in _dependent_pairs():
        caplog.clear()
        nu, relaxation, full = _systems_of(A, B, monkeypatch)
        record = _route_record(caplog)
        caplog.clear()
        ref = find_post_processing_lp(A, B)
        (lp,) = _records(caplog)
        assert (nu is None) == (ref is None)
        if nu is not None:
            assert nu.entries.tobytes() == ref.entries.tobytes()
        assert (relaxation is not None) == (len(B) >= 3)
        assert record.route == ("lp" if full is not None else "relaxation")
        if full is None:
            M, rhs, feas_tol = relaxation
            assert lp.objective > feas_tol
            assert not _oracle_feasible(M, rhs)
        routes.add((record.route, record.answer))
    assert routes == {("lp", True), ("lp", False), ("relaxation", False)}


def test_one_debug_record_per_solve_and_no_handler(caplog):
    caplog.set_level(logging.DEBUG, logger="instrorder.feasibility")
    A, b = _paired_degenerate_system(64)
    assert solve_nonnegative(A, b) is not None
    assert solve_nonnegative(np.zeros((2, 3)), np.array([1.0, 0.0])) is None
    feasible, infeasible = _records(caplog)
    assert feasible.levelno == logging.DEBUG
    assert (feasible.shape, feasible.artificials, feasible.pivots) == ((64, 64), 64, 47)
    assert not feasible.bland  # the longest run of zero ratios stays under 64
    assert "(64, 64): 64 artificials, 47 pivots" in feasible.getMessage()
    assert (infeasible.shape, infeasible.artificials, infeasible.pivots) == ((2, 3), 2, 0)
    assert infeasible.objective == 1.0
    assert logging.getLogger("instrorder.feasibility").handlers == []
    assert logging.getLogger("instrorder").handlers == []


def test_bland_fallback_keeps_the_verdicts(monkeypatch, caplog):
    # Bland's rule from the first pivot: x still matches the reference's
    # Bland path to the bit, and the verdicts still match HiGHS
    caplog.set_level(logging.DEBUG, logger="instrorder.feasibility")
    monkeypatch.setattr(feasibility, "_BLAND_AFTER", 0)
    systems = _tableau_systems() + [_degenerate_system(64), _paired_degenerate_system(64)]
    for A, b in systems:
        x = solve_nonnegative(A, b)
        ref = _full_tableau_solve(A, b, bland_after=0)
        assert (x is None) == (ref is None)
        if ref is not None:
            assert x.tobytes() == ref.tobytes()
            assert np.linalg.norm(A @ x - b) < 1e-8
        assert (x is not None) == _oracle_feasible(A, b)
    records = _records(caplog)
    assert len(records) == len(systems)
    assert all(r.bland for r in records if r.pivots > 0)
    assert records[-1].pivots > 0
    for param in _library_lps():
        A, B, reachable, route = param.values
        caplog.clear()
        nu, relaxation, full = _systems_of(A, B, monkeypatch)
        assert (nu is not None) == reachable
        assert (full is not None) == (route == "lp") == _oracle_feasible(*relaxation[:2])
        if full is not None:
            assert reachable == _oracle_feasible(*full[:2])
        records = _records(caplog)
        assert len(records) == 1 + (full is not None)
        assert all(r.bland for r in records)


def _cycling_system():
    # Hall and McKinnon's example of Dantzig's rule cycling (Math. Program.
    # 100, 2004): maximize 2.3x₀ + 2.15x₁ − 13.55x₂ − 0.4x₃ over two rows
    # with right-hand side 0 and slack columns 4 and 5.  The third row,
    # c·x = 1, starts artificial, so its phase-1 reduced costs are −c; from
    # the slack start the non-Bland rules pivot through six bases, every
    # ratio 0, back to the start
    A = np.array(
        [
            [0.4, 0.2, -1.4, -0.2, 1.0, 0.0],
            [-7.8, -1.4, 7.8, 0.4, 0.0, 1.0],
            [2.3, 2.15, -13.55, -0.4, 0.0, 0.0],
        ]
    )
    return A, np.array([0.0, 0.0, 1.0])


def test_bland_fallback_ends_a_cycle(monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="instrorder.feasibility")
    A, b = _cycling_system()
    x = solve_nonnegative(A, b)
    (record,) = _records(caplog)
    assert record.bland and record.pivots == 6
    assert x.tobytes() == _full_tableau_solve(A, b).tobytes()
    assert np.linalg.norm(A @ x - b) < 1e-12 and _oracle_feasible(A, b)
    # without the fallback the same rules never leave the cycle
    monkeypatch.setattr(feasibility, "_BLAND_AFTER", 10**9)
    monkeypatch.setattr(feasibility, "_MAX_ITER", 600)
    with pytest.raises(SolverError, match="iteration limit"):
        solve_nonnegative(A, b)
