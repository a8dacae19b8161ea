"""Laws of the POVM post-processing order, checked on find_post_processing
over random POVMs (d ≤ 4, at most 8 outcomes)."""
from hypothesis import given, settings
from hypothesis import strategies as st

from instrorder import Povm, apply_post_processing, find_post_processing, random_povm, random_unitary

from helpers import random_stochastic

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
