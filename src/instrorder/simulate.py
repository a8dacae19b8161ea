"""Simulation of instruments by mixing and post-processing a collection.

A simulation program fixes component instruments I^(1..n), mixing weights p,
and one processor per (component, outcome) pair.  Running it composes the
tracked mixture (which remembers which component fired) with the processors,
so the simulated instrument is Σ_i p_i Σ_x R^(i,x) ∘ I^(i)_x pooled over the
processors' shared outcome set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotIsometry, OutcomeSetMismatch
from .instrument import (
    Instrument,
    QuantumOperation,
    check_weights,
    compose_post_processing,
    minimal_kraus,
    pair_label,
    tracked_mix,
)
from .linalg import DEFAULT_TOL, Tolerance, frob_dist


@dataclass(eq=False)
class SimulationProgram:
    """Components with mixing weights and per-(component, outcome) processors.

    processors is keyed by (component index, outcome label) with 0-based
    component indices; tracked-mixture labels pair the 1-based component
    number with the outcome label.
    """

    components: list
    probs: np.ndarray
    processors: dict

    def __post_init__(self):
        self.probs = check_weights(self.probs, self.components)


def _padded(I: Instrument, dim_in: int, dim_out: int) -> Instrument:
    """Embed an instrument into larger input and output spaces by zero
    columns and rows; the extension acts as zero off the embedded input
    subspace, which is all the tracked mixture ever feeds it."""
    if (I.dim_in, I.dim_out) == (dim_in, dim_out):
        return I
    pad = ((0, 0), (0, dim_out - I.dim_out), (0, dim_in - I.dim_in))
    outcomes = [
        (label, QuantumOperation(dim_in, dim_out, np.pad(op.kraus, pad)))
        for label, op in I.outcomes
    ]
    return Instrument(dim_in, dim_out, outcomes)


def simulate(program: SimulationProgram) -> Instrument:
    """Run the program: tracked mixture of the components composed with the
    processors keyed by (component, outcome)."""
    comps = program.components
    first = comps[0]
    for c in comps:
        if c.dim_in != first.dim_in:
            raise DimensionMismatch("components measure different input spaces")
    expected = {
        (i, x) for i, c in enumerate(comps) for x in c.labels
    }
    if set(program.processors) != expected:
        raise OutcomeSetMismatch(
            "processors must be keyed exactly by (component index, outcome label)"
        )
    common = max(c.dim_out for c in comps)
    mixed = tracked_mix([_padded(c, c.dim_in, common) for c in comps], program.probs)
    keyed = {}
    for (i, x), R in program.processors.items():
        if R.dim_in != comps[i].dim_out:
            raise DimensionMismatch(
                f"processor for component {i} outcome {x!r} expects dimension "
                f"{R.dim_in}, component outputs {comps[i].dim_out}"
            )
        keyed[pair_label(i + 1, x)] = _padded(R, common, R.dim_out)
    return compose_post_processing(mixed, keyed)


def isometric_channel(V) -> Instrument:
    """Single-outcome instrument rho -> V rho V† for an isometry V."""
    V = np.asarray(V, dtype=complex)
    d_out, d_in = V.shape
    if frob_dist(V.conj().T @ V, np.eye(d_in)) > DEFAULT_TOL.eq_abs:
        raise NotIsometry("columns are not orthonormal")
    return Instrument(d_in, d_out, [("0", QuantumOperation(d_in, d_out, [V]))])


def is_isometric_channel(I: Instrument, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True for single-outcome instruments with one Kraus operator whose
    columns are orthonormal."""
    if len(I) != 1:
        return False
    op = minimal_kraus(I.operations[0], tol)
    if len(op.kraus) != 1:
        return False
    V = op.kraus[0]
    return frob_dist(V.conj().T @ V, np.eye(I.dim_in)) <= tol.eq_abs
