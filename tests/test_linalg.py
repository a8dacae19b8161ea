import numpy as np
import pytest
import scipy.linalg

from instrorder import (
    DEFAULT_TOL,
    PreconditionViolated,
    Tolerance,
    partial_isometry_factor,
    random_isometry,
    random_unitary,
)
from instrorder.linalg import (
    frob,
    frob_dist,
    hermitize,
    is_hermitian,
    numerical_rank,
    psd_sqrt,
    range_projector,
)
from instrorder.randgen import _gaussians


def _random_complex(rows, cols, seed):
    g = _gaussians(seed, 2 * rows * cols)
    return (g[: rows * cols] + 1j * g[rows * cols :]).reshape(rows, cols)


def test_tolerance_requires_positive_thresholds():
    with pytest.raises(ValueError):
        Tolerance(eq_abs=0.0)
    with pytest.raises(ValueError):
        Tolerance(rank_rel=-1e-8)
    t = Tolerance(eq_abs=1e-6, rank_rel=1e-5)
    assert t.eq_abs == 1e-6 and t.rank_rel == 1e-5


@pytest.mark.parametrize(
    "kwargs",
    [{"eq_abs": np.inf}, {"eq_abs": np.nan}, {"rank_rel": np.nan}, {"rank_rel": 1.0}, {"rank_rel": 5.0}],
    ids=["eq_abs-inf", "eq_abs-nan", "rank_rel-nan", "rank_rel-1", "rank_rel-5"],
)
def test_tolerance_rejects_thresholds_that_decide_nothing(kwargs):
    # an infinite eq_abs makes any two operators equal; a rank_rel of 1 or
    # more makes every numerical rank 0
    with pytest.raises(ValueError):
        Tolerance(**kwargs)


def test_hermitian_psd_basics():
    H = np.array([[1.0, 2.0j], [-2.0j, 3.0]])
    assert is_hermitian(H)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    M = _random_complex(3, 3, 5)
    assert is_hermitian(hermitize(M))
    r = psd_sqrt(hermitize(M @ M.conj().T))
    assert frob_dist(r @ r, hermitize(M @ M.conj().T)) < 1e-12


def test_numerical_rank_identity_and_zero():
    assert numerical_rank(np.eye(2)) == 2
    assert numerical_rank(np.zeros((3, 3))) == 0


def test_numerical_rank_small_singular_value():
    M = np.diag([1.0, 1e-12])
    # oracle: singular values from an eigendecomposition of M^dag M
    sig = np.sqrt(np.clip(np.linalg.eigvalsh(M.conj().T @ M), 0.0, None))
    expected = int(np.count_nonzero(sig > 1e-8 * sig.max()))
    assert expected == 1
    assert numerical_rank(M, Tolerance(rank_rel=1e-8)) == expected


def test_numerical_rank_unitary_invariance():
    for seed in range(30):
        rows, cols = 2 + seed % 3, 2 + (seed // 3) % 3
        M = _random_complex(rows, cols, seed)
        if seed % 4 == 0:
            M[:, -1] = M[:, 0]  # force a rank deficiency sometimes
        U = random_unitary(rows, seed + 1000)
        W = random_unitary(cols, seed + 2000)
        r = numerical_rank(M)
        assert numerical_rank(U @ M) == r
        assert numerical_rank(M @ W) == r
        assert numerical_rank(U @ M @ W) == r


def test_range_projector_rank_one():
    plus = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    M = np.array([[1.0], [0.0]]) @ plus.conj().T
    P = range_projector(M)
    assert frob_dist(P, np.diag([1.0, 0.0])) < 1e-12


def test_range_projector_identity():
    assert frob_dist(range_projector(np.eye(3)), np.eye(3)) < 1e-12


def test_range_projector_against_independent_svd():
    for seed in range(20):
        M = _random_complex(3, 2, seed)
        P = range_projector(M)
        U, s, _ = scipy.linalg.svd(M)
        r = int(np.count_nonzero(s > 1e-8 * s.max()))
        Q = U[:, :r] @ U[:, :r].conj().T
        assert frob_dist(P, Q) < 1e-9
        assert abs(np.trace(P).real - 2.0) < 1e-9


def test_range_projector_properties():
    for seed in range(40):
        rows, cols = 2 + seed % 4, 2 + (seed // 4) % 3
        M = _random_complex(rows, cols, seed + 300)
        if seed % 3 == 0:
            M[:, 0] = 0.0
        P = range_projector(M)
        assert frob_dist(P, P.conj().T) < DEFAULT_TOL.eq_abs
        assert frob_dist(P @ P, P) < DEFAULT_TOL.eq_abs
        assert frob_dist(P @ M, M) < DEFAULT_TOL.eq_abs
        assert numerical_rank(P) == numerical_rank(M)


def test_partial_isometry_identity_case():
    U = partial_isometry_factor(np.eye(2), np.eye(2), 1.0)
    assert frob_dist(U, np.eye(2)) < 1e-12


def test_partial_isometry_embedding_case():
    K = np.zeros((3, 2), dtype=complex)
    K[0, 0] = K[1, 1] = 1.0
    U = partial_isometry_factor(K, np.eye(2), 1.0)
    assert frob_dist(K, U @ np.eye(2)) < 1e-12
    assert frob_dist(U.conj().T @ U, np.eye(2)) < 1e-12


def test_partial_isometry_known_unitary_factor():
    for seed in range(10):
        L = _random_complex(3, 3, seed)
        W = random_unitary(3, seed + 50)
        K = 0.5 * W @ L
        U = partial_isometry_factor(K, L, 0.25)
        assert frob_dist(K, 0.5 * U @ L) < 1e-9
        assert frob_dist(U.conj().T @ U, np.eye(3)) < 1e-9


def test_partial_isometry_tall_regime():
    # rows(K) >= rows(L): U must be an isometry with K = sqrt(c) U L
    count = 0
    for seed in range(300):
        dh = 1 + seed % 3
        dv = dh + (seed // 3) % 3
        dk = dv + (seed // 9) % 3
        c = 0.1 + (seed % 7) * 0.3
        L = _random_complex(dv, dh, seed)
        V0 = random_isometry(dv, dk, seed + 10_000)
        K = np.sqrt(c) * V0 @ L
        U = partial_isometry_factor(K, L, c)
        assert U.shape == (dk, dv)
        assert frob_dist(K, np.sqrt(c) * U @ L) <= DEFAULT_TOL.eq_abs
        assert frob_dist(U.conj().T @ U, np.eye(dv)) <= DEFAULT_TOL.eq_abs
        count += 1
    assert count == 300


def test_partial_isometry_wide_regime():
    # rows(K) < rows(L): U is a coisometry and U^dag U acts as identity on L
    count = 0
    for seed in range(300):
        dh = 1 + seed % 3
        dk = max(1, 1 + (seed // 3) % 3)
        dv = dk + 1 + (seed // 9) % 2
        c = 0.2 + (seed % 5) * 0.4
        K = _random_complex(dk, dh, seed + 777)
        V0 = random_isometry(dk, dv, seed + 20_000)
        L = V0 @ K / np.sqrt(c)
        U = partial_isometry_factor(K, L, c)
        assert U.shape == (dk, dv)
        assert frob_dist(K, np.sqrt(c) * U @ L) <= DEFAULT_TOL.eq_abs
        assert frob_dist(U @ U.conj().T, np.eye(dk)) <= DEFAULT_TOL.eq_abs
        assert frob_dist(U.conj().T @ U @ L, L) <= DEFAULT_TOL.eq_abs
        count += 1
    assert count == 300


def test_partial_isometry_degenerate_blocks():
    # repeated singular values force the blockwise basis matching
    for seed in range(20):
        dh = 3
        W1 = random_unitary(dh, seed)
        L = W1 @ np.diag([1.0, 1.0, 0.5]) @ random_unitary(dh, seed + 1)
        V0 = random_isometry(3, 4, seed + 2)
        c = 2.0
        K = np.sqrt(c) * V0 @ L
        U = partial_isometry_factor(K, L, c)
        assert frob_dist(K, np.sqrt(c) * U @ L) <= 1e-10
        assert frob_dist(U.conj().T @ U, np.eye(3)) <= 1e-10


def test_partial_isometry_rejects_gram_mismatch():
    K = np.eye(2)
    L = np.diag([1.0, 0.9])
    with pytest.raises(PreconditionViolated):
        partial_isometry_factor(K, L, 1.0)


def test_frob_helpers():
    assert frob(np.zeros((2, 2))) == 0.0
    assert abs(frob(np.eye(3)) - np.sqrt(3.0)) < 1e-15
    assert frob_dist(np.eye(2), np.eye(2)) == 0.0
