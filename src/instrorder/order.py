"""Post-processing relations between instruments, in replayable form.

Every function here that claims J is reachable from I returns a witness: a
processor instrument per source outcome, plus the target's per-outcome Choi
matrices as fingerprint.  replay_witness pushes the source back through
compose_post_processing so the claim can always be checked numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import (
    certificate_error,
    identity_class_certificate,
    is_indecomposable_instrument,
    is_measure_and_prepare,
)
from .errors import (
    CertificateMismatch,
    DimensionMismatch,
    LabelMismatch,
    NotIndecomposable,
    NotMeasureAndPrepare,
    PreconditionViolated,
    SolverError,
)
from .instrument import (
    Instrument,
    QuantumOperation,
    _minimal_branches,
    complete_channel,
    compose_post_processing,
    detailed_instrument,
    identity_instrument,
    induced_povm,
    is_zero_operation,
    minimal_kraus,
    routed,
    trash_and_prepare,
    zero_operation,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    frob_dist,
    partial_isometry_factor,
    range_projector,
)
from .povm import find_post_processing, povm_equivalent


@dataclass(eq=False)
class InstrumentWitness:
    """Processors realizing a declared target as a post-processing of some
    source instrument; the target is fingerprinted by its Choi matrices."""

    source_labels: list
    processors: dict
    target_labels: list
    target_chois: dict


@dataclass(eq=False)
class EquivalenceWitness:
    """Two-way post-processing between instruments I and J.

    stoch_forward realizes A^J from A^I (rows labeled by I), stoch_backward
    the reverse; ratios_forward[(x, y)] is the constant with
    A^I(x) = c * A^J(y) on supported pairs, ratios_backward[(y, x)] its
    inverse direction.
    """

    forward: InstrumentWitness
    backward: InstrumentWitness
    stoch_forward: object
    stoch_backward: object
    ratios_forward: dict
    ratios_backward: dict


def replay_witness(source: Instrument, w: InstrumentWitness) -> Instrument:
    """Rebuild the witness's target from the source instrument."""
    if source.labels != w.source_labels:
        raise LabelMismatch("witness was built for a source with different outcome labels")
    return compose_post_processing(source, w.processors)


def witness_error(source: Instrument, w: InstrumentWitness) -> float:
    """Largest per-outcome Choi distance between replay and the fingerprint."""
    replay = replay_witness(source, w)
    return max(
        frob_dist(replay.operation(y).choi_matrix, w.target_chois[y])
        for y in w.target_labels
    )


def _witness(source: Instrument, processors: dict, target: Instrument) -> InstrumentWitness:
    return InstrumentWitness(
        source_labels=list(source.labels),
        processors=processors,
        target_labels=list(target.labels),
        target_chois={label: op.choi_matrix for label, op in target.outcomes},
    )


def _checked(source, processors, target, tol) -> InstrumentWitness:
    w = _witness(source, processors, target)
    err = witness_error(source, w)
    if err > tol.eq_abs:
        raise SolverError(f"witness replay missed its target by {err:.3e}")
    return w


def _sink(dim_in, dim_out, labels, to_label) -> Instrument:
    """Instrument routing its whole input to one outcome as a trash channel,
    which sends everything to the first basis state of the target.

    Used for source outcomes whose operation vanishes: any channel works
    there, since its contribution to every replay is negligible.
    """
    trash = QuantumOperation(dim_in, dim_out, complete_channel([], dim_in, dim_out))
    return routed(trash, labels, to_label)


def witness_detailed_to_original(I: Instrument, tol: Tolerance = DEFAULT_TOL) -> InstrumentWitness:
    """Witness from the detailed instrument of I back to I: the branch
    outcome (i, x) is forwarded unchanged to x."""
    branches = _minimal_branches(I, tol)
    if not branches:
        raise PreconditionViolated("instrument has no nonvanishing operation")
    d = I.dim_out
    ident = QuantumOperation(d, d, [np.eye(d)])
    processors = {pl: routed(ident, I.labels, src) for pl, src, _ in branches}
    return _checked(detailed_instrument(I, tol), processors, I, tol)


def witness_original_to_detailed(I: Instrument, tol: Tolerance = DEFAULT_TOL):
    """Witness from I to its detailed instrument, present iff the minimal
    Kraus matrices of each operation have pairwise orthogonal products.

    When K_ix† K_jx = 0 for i != j the ranges of the branches are mutually
    orthogonal; measuring the range projectors after I recovers which branch
    fired.  The first branch's projector absorbs the leftover of the output
    space so the processor is trace preserving.
    """
    branches = _minimal_branches(I, tol)
    if not branches:
        raise PreconditionViolated("instrument has no nonvanishing operation")
    d = I.dim_out
    per_src = {}
    for pl, src, K in branches:
        per_src.setdefault(src, []).append((pl, K))
    for ks in per_src.values():
        for i in range(len(ks)):
            for j in range(i + 1, len(ks)):
                gap = frob_dist(ks[i][1].conj().T @ ks[j][1], np.zeros((I.dim_in, I.dim_in)))
                if gap > tol.eq_abs:
                    return None
    detailed = detailed_instrument(I, tol)
    det_labels = detailed.labels
    processors = {}
    for x in I.labels:
        if x not in per_src:
            processors[x] = _sink(d, d, det_labels, det_labels[0])
            continue
        own = per_src[x]
        projs = [range_projector(K, tol) for _, K in own]
        first = np.eye(d)
        for P in projs[1:]:
            first = first - P
        ops = {own[0][0]: first}
        for (pl, _), P in zip(own[1:], projs[1:]):
            ops[pl] = P
        outcomes = [
            (
                pl,
                QuantumOperation(d, d, [ops[pl]]) if pl in ops else zero_operation(d, d),
            )
            for pl in det_labels
        ]
        processors[x] = Instrument(d, d, outcomes)
    return _checked(I, processors, detailed, tol)


def witness_identity_reversal(
    I: Instrument, cert=None, tol: Tolerance = DEFAULT_TOL
) -> InstrumentWitness:
    """Channels R^(x) with Σ_x R^(x) ∘ I_x = identity, from an
    identity-class certificate: R^(x) applies the adjoints of the branch
    isometries, completed to a channel by complete_channel, which funnels
    the remaining output subspace into the first basis state of the input
    space."""
    if cert is None:
        cert = identity_class_certificate(I, tol)
        if cert is None:
            raise PreconditionViolated("instrument is not in the identity class")
    if certificate_error(I, cert) > tol.eq_abs:
        raise CertificateMismatch("certificate does not reproduce the instrument")
    d_in, d_out = I.dim_in, I.dim_out
    processors = {}
    for x in I.labels:
        ks = complete_channel([V.conj().T for _, V in cert.branches[x]], d_out, d_in)
        processors[x] = Instrument(d_out, d_in, [("0", QuantumOperation(d_out, d_in, ks))])
    return _checked(I, processors, identity_instrument(d_in), tol)


def witness_to_trash_and_prepare(
    I: Instrument, p, states, labels=None, tol: Tolerance = DEFAULT_TOL
) -> InstrumentWitness:
    """Witness from any instrument to the trash-and-prepare target given by
    (p, states): every outcome gets the same trash-and-prepare processor."""
    target = trash_and_prepare(p, states, dim_in=I.dim_in, labels=labels)
    template = trash_and_prepare(p, states, dim_in=I.dim_out, labels=labels)
    processors = {x: template for x in I.labels}
    return _checked(I, processors, target, tol)


def _single_branch(op, tol):
    """The unique minimal Kraus matrix of a Choi-rank-1 operation, or None
    when the operation vanishes."""
    if is_zero_operation(op, tol):
        return None
    return minimal_kraus(op, tol).kraus[0]


def _factor_processors(src: Instrument, tgt: Instrument, stoch, tol):
    """Processors realizing tgt from src, and the ratios c with
    A^src(x) = c * A^tgt(y), for indecomposable instruments whose induced
    POVMs are linked by stoch (rows labeled by src).

    On every supported pair (x, y) the single Kraus matrices factor as
    K_x = √c U L_y through a partial isometry U; the processor at x applies
    U†, completed to a channel, with weight stoch[x, y].
    """
    d_s, d_t = src.dim_out, tgt.dim_out
    singles_t = {y: _single_branch(op, tol) for y, op in tgt.outcomes}
    traces_t = {y: np.trace(op.effect).real for y, op in tgt.outcomes}
    processors = {}
    ratios = {}
    for row, (x, op) in zip(stoch.entries, src.outcomes):
        K = _single_branch(op, tol)
        if K is None:
            processors[x] = _sink(d_s, d_t, tgt.labels, tgt.labels[0])
            continue
        trace = np.trace(op.effect).real
        outcomes = []
        for s, y in zip(row, tgt.labels):
            if s <= 1e-15 or singles_t[y] is None:
                outcomes.append((y, zero_operation(d_s, d_t)))
                continue
            c = trace / traces_t[y]
            ratios[(x, y)] = c
            U = partial_isometry_factor(K, singles_t[y], c, tol)
            ks = complete_channel([U.conj().T], d_s, d_t)
            outcomes.append((y, QuantumOperation(d_s, d_t, [np.sqrt(s) * M for M in ks])))
        processors[x] = Instrument(d_s, d_t, outcomes)
    return processors, ratios


def witness_indecomposable_equivalence(
    I: Instrument, J: Instrument, tol: Tolerance = DEFAULT_TOL
):
    """Two-way witnesses between indecomposable instruments, present exactly
    when their induced POVMs are post-processing equivalent.

    Both directions come from _factor_processors.  When the source's output
    space is the smaller one the partial isometry's adjoint is already an
    isometry, and completion adds nothing.
    """
    if not is_indecomposable_instrument(I, tol):
        raise NotIndecomposable("first instrument has a Choi rank above one")
    if not is_indecomposable_instrument(J, tol):
        raise NotIndecomposable("second instrument has a Choi rank above one")
    if I.dim_in != J.dim_in:
        raise DimensionMismatch("instruments measure different input spaces")
    eq = povm_equivalent(induced_povm(I), induced_povm(J), tol)
    if eq is None:
        return None
    nu, mu = eq  # nu rebuilds A^I from A^J; mu rebuilds A^J from A^I
    forward, ratios_forward = _factor_processors(I, J, mu, tol)
    backward, ratios_backward = _factor_processors(J, I, nu, tol)
    return EquivalenceWitness(
        forward=_checked(I, forward, J, tol),
        backward=_checked(J, backward, I, tol),
        stoch_forward=mu,
        stoch_backward=nu,
        ratios_forward=ratios_forward,
        ratios_backward=ratios_backward,
    )


def witness_map_post_processing(I: Instrument, J: Instrument, tol: Tolerance = DEFAULT_TOL):
    """Witness from measure-and-prepare I to measure-and-prepare J, present
    exactly when A^J is a classical post-processing of A^I: the processor at
    x trashes I's output and prepares J's states with distribution μ_x."""
    cert_i = is_measure_and_prepare(I, tol)
    cert_j = is_measure_and_prepare(J, tol)
    if cert_i is None:
        raise NotMeasureAndPrepare("first instrument is not measure-and-prepare")
    if cert_j is None:
        raise NotMeasureAndPrepare("second instrument is not measure-and-prepare")
    if I.dim_in != J.dim_in:
        raise DimensionMismatch("instruments measure different input spaces")
    mu = find_post_processing(induced_povm(I), induced_povm(J), tol)
    if mu is None:
        return None
    processors = {}
    for xi, x in enumerate(I.labels):
        processors[x] = trash_and_prepare(
            mu.entries[xi], cert_j.states, dim_in=I.dim_out, labels=J.labels
        )
    w = _checked(I, processors, J, tol)
    return w


def check_povm_necessary_condition(I: Instrument, J: Instrument, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Necessary condition for J being a post-processing of I when J is
    indecomposable: A^I must be a classical post-processing of A^J.  A False
    certifies that no post-processing from I to J exists."""
    if not is_indecomposable_instrument(J, tol):
        raise NotIndecomposable("condition only applies to indecomposable targets")
    return find_post_processing(induced_povm(J), induced_povm(I), tol) is not None
