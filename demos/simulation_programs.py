"""
Simulating instruments from a toolbox
=====================================

A simulation program mixes component instruments and post-processes each
tracked outcome.  Two extremes bracket what a toolbox can do: trash-and-
prepare components only ever simulate trash-and-prepare, while a single
identity-class component simulates everything.
"""

import numpy as np

from instrorder import (
    Instrument,
    QuantumOperation,
    SimulationProgram,
    compose_post_processing,
    identity_instrument,
    instrument_distance,
    is_trash_and_prepare,
    luders,
    random_distribution,
    random_instrument,
    random_povm,
    random_state,
    trash_and_prepare,
    witness_identity_reversal,
)
from instrorder.simulate import simulate

# Mix two Lüders measurements 50/50, forwarding outcome x of either
# component to the shared label x.
c1 = luders(random_povm(2, 2, seed=1))
c2 = luders(random_povm(2, 2, seed=2))
eye = np.eye(2, dtype=complex)
zero = np.zeros((2, 2), dtype=complex)
forward = {
    (i, x): Instrument(
        2, 2, [(y, QuantumOperation(2, 2, [eye if y == x else zero])) for y in ("0", "1")]
    )
    for i in range(2)
    for x in ("0", "1")
}
mixed = simulate(SimulationProgram([c1, c2], [0.5, 0.5], forward))
print("simulated mixture outcomes:", mixed.labels)
print("outcome probabilities on the maximally mixed state:")
rho = np.eye(2) / 2.0
for x in mixed.labels:
    out = mixed.operation(x)(rho)
    print(f"  outcome {x}: {np.trace(out).real:.6f}")

# Trash-and-prepare toolboxes are absorbing: whatever the processors do,
# the simulated instrument is again trash-and-prepare.
T = trash_and_prepare(
    random_distribution(2, 3), [random_state(2, 4), random_state(2, 5)], dim_in=2
)
procs = {
    (0, x): random_instrument(2, 2, 2, 2, seed=10 + i) for i, x in enumerate(T.labels)
}
out = simulate(SimulationProgram([T], [1.0], procs))
print("trash toolbox output is trash-and-prepare:", is_trash_and_prepare(out) is not None)

# One identity-class component simulates any target: undo the component,
# then run the target on the recovered input.
target = random_instrument(3, 2, 2, 1, seed=20)
source = identity_instrument(2)
reversal = witness_identity_reversal(source)
procs = {
    (0, x): compose_post_processing(reversal.processors[x], {"0": target})
    for x in source.labels
}
got = simulate(SimulationProgram([source], [1.0], procs))
print(
    "identity component reproduces a random 3-outcome instrument, distance:",
    instrument_distance(got, target),
)
