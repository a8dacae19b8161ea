import numpy as np
import pytest
import scipy.optimize

from instrorder.errors import SolverError
from instrorder.feasibility import solve_nonnegative
from instrorder.randgen import _gaussians, _uniforms


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


def test_iteration_limit_raises_solver_error():
    A = np.array([[1.0, 2.0], [3.0, 1.0]])
    with pytest.raises(SolverError):
        solve_nonnegative(A, A @ np.array([0.5, 0.25]), max_iter=0)
