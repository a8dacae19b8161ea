"""Laws of the POVM post-processing order, checked on find_post_processing
and povm_equivalent over random POVMs (d ≤ 5, at most 10 outcomes)."""
import numpy as np
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from instrorder import (
    Povm,
    apply_post_processing,
    find_post_processing,
    max_effect_distance,
    povm_equivalent,
    random_povm,
    random_unitary,
    relabel,
)
from instrorder.linalg import DEFAULT_TOL

from helpers import find_post_processing_lp, random_stochastic

LAWS = settings(derandomize=True, deadline=None, max_examples=30, database=None)
dims = st.integers(1, 4)
sizes = st.integers(1, 8)
seeds = st.integers(0, 2**32)


def _coarse(A, n, seed):
    return apply_post_processing(A, random_stochastic(A.labels, [str(y) for y in range(n)], seed))


def _conjugate(A, U):
    return Povm(A.dim, [(l, U @ E @ U.conj().T) for l, E in A.outcomes])


@LAWS
@given(d=dims, n=sizes, seed=seeds)
def test_reflexive(d, n, seed):
    A = random_povm(n, d, seed)
    assert find_post_processing(A, A) is not None


@LAWS
@given(d=dims, n_a=sizes, n_b=sizes, n_c=sizes, seed=seeds)
def test_transitive(d, n_a, n_b, n_c, seed):
    A = random_povm(n_a, d, seed)
    B = _coarse(A, n_b, seed + 1)
    C = _coarse(B, n_c, seed + 2)
    assert find_post_processing(A, C) is not None


@LAWS
@given(d=dims, n_a=sizes, n_b=sizes, seed=seeds, independent=st.booleans())
def test_unitary_invariance(d, n_a, n_b, seed, independent):
    A = random_povm(n_a, d, seed)
    B = random_povm(n_b, d, seed + 1) if independent else _coarse(A, n_b, seed + 1)
    U = random_unitary(d, seed + 2)
    found = find_post_processing(A, B) is not None
    assert (find_post_processing(_conjugate(A, U), _conjugate(B, U)) is not None) == found


@LAWS
@given(d=st.integers(1, 5), n_a=st.integers(1, 10), n_b=st.integers(1, 10), seed=seeds)
def test_coarse_graining_is_found(d, n_a, n_b, seed):
    A = random_povm(n_a, d, seed)
    B = _coarse(A, n_b, seed + 1)
    nu = find_post_processing(A, B)
    assert nu is not None
    assert max_effect_distance(apply_post_processing(A, nu), B) <= DEFAULT_TOL.eq_abs


def _flat(E):
    return np.concatenate([E.real.ravel(), E.imag.ravel()])


def _oracle_reachable(A, B):
    # scipy linear programming on the full real and imaginary parts
    n_a, n_b = len(A), len(B)
    cols = np.array([_flat(E) for E in A.effects]).T
    blocks = np.kron(np.eye(n_b), cols)  # nu[x, y] at column y * n_a + x
    sums = np.kron(np.ones(n_b), np.eye(n_a))
    rhs = np.concatenate([_flat(E) for E in B.effects] + [np.ones(n_a)])
    res = scipy.optimize.linprog(
        c=np.zeros(n_a * n_b),
        A_eq=np.vstack([blocks, sums]),
        b_eq=rhs,
        bounds=[(0.0, None)] * (n_a * n_b),
        method="highs",
    )
    return res.status == 0


@LAWS
@given(d=st.integers(2, 4), n_a=st.integers(2, 8), n_b=st.integers(2, 6), seed=seeds)
def test_in_span_non_coarse_graining_is_rejected(d, n_a, n_b, seed):
    # B(y) = Σ_x nu'_xy A(x) lies in span{A(x)}, and with n_a ≤ d² the
    # effects are linearly independent, so nu' is the only candidate; one
    # entry of nu' is pushed below zero by half of what keeps B(0) ≥ 0
    n_a = min(n_a, d * d)
    A = random_povm(n_a, d, seed)
    nu = random_stochastic(A.labels, [str(y) for y in range(n_b)], seed + 1).entries
    rest = sum(nu[x, 0] * E for x, E in enumerate(A.effects) if x > 0)
    room = np.linalg.eigvalsh(rest).min() / np.linalg.eigvalsh(A.effects[0]).max()
    shift = nu[0, 0] + 0.5 * room
    nu[0, 0] -= shift
    nu[0, 1] += shift
    effects = np.einsum("xy,xij->yij", nu, np.array(A.effects))
    B = Povm(d, [(str(y), E) for y, E in enumerate(effects)])
    assert min(np.linalg.eigvalsh(E).min() for E in effects) >= 0.0
    assert not _oracle_reachable(A, B)
    assert find_post_processing(A, B) is None


@LAWS
@given(
    d=dims,
    n_a=st.integers(1, 16),
    n_b=st.integers(2, 6),
    seed=seeds,
    kind=st.sampled_from(["coarse", "relabel", "shifted", "random"]),
    t=st.floats(1e-3, 0.5),
)
def test_direct_solve_agrees_with_lp(d, n_a, n_b, seed, kind, t):
    # with n_a ≤ d² the effects are independent and nu is found by one
    # solve; the LP formulation it replaced must give the same yes/no
    n_a = min(n_a, d * d)
    A = random_povm(n_a, d, seed)
    if kind == "coarse":
        B = _coarse(A, n_b, seed + 1)
    elif kind == "relabel":
        B = relabel(A, lambda label: int(label) % n_b)
    elif kind == "random":
        B = random_povm(n_b, d, seed + 1)
    else:  # in the span, with nu'[0, 0] = -t
        nu = random_stochastic(A.labels, [str(y) for y in range(n_b)], seed + 1).entries
        nu[0, 1] += nu[0, 0] + t
        nu[0, 0] = -t
        B = Povm(d, [(str(y), E) for y, E in enumerate(np.einsum("xy,xij->yij", nu, np.array(A.effects)))])
    found = find_post_processing(A, B)
    reference = find_post_processing_lp(A, B)
    assert (found is None) == (reference is None)
    for nu in (found, reference):
        if nu is not None:
            assert max_effect_distance(apply_post_processing(A, nu), B) <= DEFAULT_TOL.eq_abs
    if kind in ("coarse", "relabel"):
        assert found is not None


def _split_and_reverse(A, w):
    # an equivalent POVM: outcome 0 split into the parts w and 1 - w, then
    # the outcomes reversed
    (l0, E0), rest = A.outcomes[0], A.outcomes[1:]
    return Povm(A.dim, ([(l0 + "a", w * E0), (l0 + "b", (1 - w) * E0)] + rest)[::-1])


@LAWS
@given(
    d=dims,
    n_a=sizes,
    n_b=sizes,
    seed=seeds,
    kind=st.sampled_from(["split", "merge", "other"]),
    w=st.floats(0.1, 0.9),
)
def test_equivalence_is_symmetric(d, n_a, n_b, seed, kind, w):
    A = random_povm(n_a, d, seed)
    if kind == "split":
        B = _split_and_reverse(A, w)
    elif kind == "merge":
        B = relabel(A, lambda label: int(label) % 2)
    else:
        B = random_povm(n_b, d, seed + 1)
    forward = povm_equivalent(A, B)
    backward = povm_equivalent(B, A)
    assert (forward is None) == (backward is None)
    if forward is not None:
        assert np.array_equal(forward[0].entries, backward[1].entries)
        assert np.array_equal(forward[1].entries, backward[0].entries)
