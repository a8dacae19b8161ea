"""
Witnesses for the instrument post-processing order
==================================================

A claim "J is a post-processing of I" is backed by processor instruments
that, composed with I, rebuild J.  Every witness here is replayed and its
reconstruction error printed.
"""

import numpy as np

from instrorder import (
    Instrument,
    QuantumOperation,
    detailed_instrument,
    identity_instrument,
    induced_povm,
    instrument_distance,
    luders,
    random_distribution,
    random_isometry,
    random_state,
    replay_witness,
    witness_detailed_to_original,
    witness_error,
    witness_identity_reversal,
    witness_indecomposable_equivalence,
    witness_to_trash_and_prepare,
)
from instrorder.povm import Povm
from instrorder.randgen import random_povm

# Forgetting which Kraus branch fired: the detailed instrument always
# reaches the original by merging branch outcomes.
I = luders(random_povm(3, 2, seed=1))
w = witness_detailed_to_original(I)
print("detailed -> original replay error:", witness_error(detailed_instrument(I), w))

# Any instrument reaches any trash-and-prepare target: trash the quantum
# output, then draw a fresh outcome and state.
p = random_distribution(2, seed=2)
targets = [random_state(2, seed) for seed in (3, 4)]
w = witness_to_trash_and_prepare(I, p, targets)
print("down to trash-and-prepare, replay error:", witness_error(I, w))

# An instrument in the identity equivalence class can be undone: a mixture
# of two orthogonal isometry branches per outcome loses no information.
V = random_isometry(4, 4, seed=5)
branches = [V[:, :2], V[:, 2:]]
ops = [
    ("0", QuantumOperation(2, 4, [np.sqrt(0.5) * W for W in branches])),
]
U = Instrument(2, 4, ops)
w = witness_identity_reversal(U)
replay = replay_witness(U, w)
print(
    "reversal of an identity-class instrument, distance to the identity:",
    instrument_distance(replay, identity_instrument(2)),
)

# Between indecomposable instruments, equivalence is decided through the
# induced POVMs and certified both ways at once.
basis = Povm(2, [("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0]))])
L = luders(basis)
# same measurement, relabeled outcomes and a larger output space
iso = random_isometry(2, 3, seed=6)
M = Instrument(
    2,
    3,
    [(l + "'", QuantumOperation(2, 3, [iso @ K for K in op.kraus])) for l, op in L.outcomes],
)
pair = witness_indecomposable_equivalence(L, M)
print("Lüders vs dressed relabeling equivalent:", pair is not None)
print("  forward replay error:", witness_error(L, pair.forward))
print("  backward replay error:", witness_error(M, pair.backward))
print("  stochastic matrix turning A^L into A^M (rows labeled by L):")
print(pair.stoch_forward.entries)

# The induced POVMs confirm what the witnesses certify.
print(
    "induced POVMs carry the same statistics:",
    [np.allclose(induced_povm(L).effect(l), induced_povm(M).effect(l + "'")) for l in L.labels],
)
