"""povm-lp: find_post_processing on a ladder of POVM pairs.

Every rung (d, n_a, n_b) gives two questions about a random n_a-outcome
POVM A on dimension d: is B a post-processing of A, where B is a seeded
coarse-graining of A (yes by construction), and where B is an independent
random n_b-outcome POVM (no).  The seeded rungs vary with --seed; the top
rung is ROADMAP item 2's (8, 16 -> 16) pair, drawn once from a fixed seed so
that its pivot count, which alone swings the pass time by a fifth between
seeds, does not swamp the rest of the ladder.
"""

from __future__ import annotations

import hashlib

import numpy as np

from instrorder import povm, randgen
from oracles import check_stochastic_witness, confirm_no_post_processing
from workload import Op

LADDER = [
    (2, 4, 3), (2, 8, 4), (2, 16, 8), (3, 6, 4), (3, 12, 8), (4, 8, 6),
    (4, 12, 8), (4, 16, 8), (5, 10, 8), (6, 8, 6), (6, 12, 8), (6, 12, 12),
    (7, 12, 10), (8, 12, 8), (8, 16, 8), (8, 12, 12),
]
ANCHOR = (8, 16, 16)
ANCHOR_SEED = 0


def subseed(seed, *path) -> int:
    """Deterministic 63-bit seed for one input, derived from the run seed."""
    digest = hashlib.blake2b(repr((seed,) + path).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def coarse_graining(A, n_b, seed):
    """POVM with effects Σ_x ν_xy A(x) for a seeded row-stochastic ν."""
    nu = np.array([randgen.random_distribution(n_b, subseed(seed, "nu", x)) for x in range(len(A))])
    effects = np.einsum("xy,xij->yij", nu, np.array(A.effects))
    return povm.Povm(A.dim, [(str(y), E) for y, E in enumerate(effects)])


def pair_ops(tag, rung, seed):
    d, n_a, n_b = rung
    A = randgen.random_povm(n_a, d, subseed(seed, tag, "A"))
    B_yes = coarse_graining(A, n_b, subseed(seed, tag, "coarse"))
    B_no = randgen.random_povm(n_b, d, subseed(seed, tag, "B"))
    ops = []
    for B, expected in ((B_yes, True), (B_no, False)):
        ops.append(Op(
            name=f"find {tag} d={d} {n_a}->{n_b} {'yes' if expected else 'no'}",
            call=lambda A=A, B=B: povm.find_post_processing(A, B),
            expected=expected,
            decide=lambda nu: nu is not None,
            check=lambda nu, A=A, B=B: _check(nu, A, B),
            fingerprint=lambda nu: None if nu is None else nu.entries.tobytes(),
            yes_when=True,
            inputs=(A, B),
        ))
    return ops


def _check(nu, A, B):
    if nu is None:
        return confirm_no_post_processing(A.effects, B.effects)
    if nu.row_labels != A.labels or nu.col_labels != B.labels:
        return "stochastic matrix labels do not match the POVMs"
    return check_stochastic_witness(nu.entries, A.effects, B.effects)


def build(seed, workdir):
    ops = []
    for k, rung in enumerate(LADDER):
        ops += pair_ops(f"rung{k}", rung, seed)
    ops += pair_ops("anchor", ANCHOR, ANCHOR_SEED)
    return ops

