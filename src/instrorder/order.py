"""Post-processing relations between instruments, in replayable form.

Every function here that claims J is reachable from I returns a witness: a
processor instrument per source outcome, plus the target instrument J
itself, in Kraus form.  replay_witness pushes the source back through
compose_post_processing so the claim can always be checked numerically.
witness_error checks it without building that instrument: for each target
outcome y it forms the replay's Kraus stack, Σ_x R^(x)_y ∘ I_x, straight
from the products of the Kraus stacks, skipping zero processor operations
(instrument._post_processed_kraus, the product rule compose_post_processing
uses too), and compares it with the target's Kraus matrices through a
Choi-gap kernel picked by shape (instrument._gram_gap), without forming a
Choi matrix.  It also holds every processor to trace preservation.  A
witness read from a version-1 document carries the Choi matrices the
document states instead of a Kraus form; the replay's Choi matrix W W†,
from its Kraus columns W, is compared with them densely.

Processors after a single Kraus matrix K follow one pull-back rule
(instrument._pull_back): a target operation with Kraus matrices L reached
with weight w is realized by √w · L K⁺, and the channel is closed on the
kernel of K† by complete_channel.  The indecomposable equivalence
witnesses and the Lüders refinement are both built this way.
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
    _check_processors,
    _closed_processor,
    _forwarding,
    _gram_gap,
    _kraus_columns,
    _kraus_rows,
    _minimal_branches,
    _post_processed_kraus,
    _pull_back,
    complete_channel,
    compose_post_processing,
    detailed_instrument,
    identity_instrument,
    induced_povm,
    luders,
    scale_operation,
    trash_and_prepare,
)
from .linalg import DEFAULT_TOL, Tolerance, frob_dist, range_projector
from .povm import find_post_processing, povm_equivalent


@dataclass(eq=False)
class InstrumentWitness:
    """Processors realizing a declared target as a post-processing of some
    source instrument.

    target is the target instrument, whose Kraus form the replay is
    compared with.  A witness read from a version-1 document holds instead
    the dict label -> Choi matrix that the document states.
    """

    source_labels: list
    processors: dict
    target: Instrument | dict

    @property
    def target_labels(self) -> list:
        t = self.target
        return t.labels if isinstance(t, Instrument) else list(t)


@dataclass(eq=False)
class EquivalenceWitness:
    """Two-way post-processing between instruments I and J.

    stoch_forward realizes A^J from A^I (rows labeled by I) and weights the
    backward processors; stoch_backward realizes A^I from A^J (rows labeled
    by J) and weights the forward ones.
    """

    forward: InstrumentWitness
    backward: InstrumentWitness
    stoch_forward: object
    stoch_backward: object


def replay_witness(source: Instrument, w: InstrumentWitness) -> Instrument:
    """Rebuild the witness's target from the source instrument."""
    if source.labels != w.source_labels:
        raise LabelMismatch("witness was built for a source with different outcome labels")
    return compose_post_processing(source, w.processors)


def witness_error(source: Instrument, w: InstrumentWitness) -> float:
    """Largest of the per-outcome Choi distances between replay and target
    and of the processors' normalization gaps ‖Σ_k K_k†K_k − I‖_F (summed
    over every outcome's Kraus matrices): a replay can match its target
    through processors that are not instruments.  NaN if any of them is
    NaN.

    The replay is never built as an instrument: for each target outcome y
    the Kraus stack of Σ_x R^(x)_y ∘ I_x comes straight from the products
    of the Kraus stacks (instrument._post_processed_kraus) and is compared
    with the target's through instrument._gram_gap.  It raises what
    replay_witness would.
    """
    if source.labels != w.source_labels:
        raise LabelMismatch("witness was built for a source with different outcome labels")
    ref = _check_processors(source, w.processors)
    shape = (source.dim_in, ref.dim_out)
    errors = []
    if isinstance(w.target, Instrument):
        for y, op in w.target.outcomes:
            if (op.dim_in, op.dim_out) != shape:
                raise DimensionMismatch("operations act between different spaces")
            ks = _post_processed_kraus(source, w.processors, y)
            errors.append(_gram_gap(_kraus_rows(ks), _kraus_rows(op.kraus)))
    else:
        for y, stated in w.target.items():
            V = _kraus_columns(_post_processed_kraus(source, w.processors, y))
            C = V @ V.conj().T
            if stated.shape != C.shape:  # frob_dist would broadcast
                raise DimensionMismatch(
                    f"target {y!r} states a Choi matrix of shape {stated.shape}, "
                    f"the replay's is {C.shape}"
                )
            errors.append(frob_dist(C, stated))
    for R in w.processors.values():
        stacked = np.concatenate([op.kraus for op in R.operations]).reshape(-1, R.dim_in)
        errors.append(frob_dist(stacked.conj().T @ stacked, np.eye(R.dim_in)))
    return float(np.max(errors))


def _witness(source: Instrument, processors: dict, target: Instrument) -> InstrumentWitness:
    return InstrumentWitness(
        source_labels=list(source.labels), processors=processors, target=target
    )


def _checked(source, processors, target, tol) -> InstrumentWitness:
    w = _witness(source, processors, target)
    err = witness_error(source, w)
    if not err <= tol.eq_abs:  # so that a NaN error fails
        raise SolverError(f"witness replay missed its target by {err:.3e}")
    return w


def witness_detailed_to_original(I: Instrument, tol: Tolerance = DEFAULT_TOL) -> InstrumentWitness:
    """Witness from the detailed instrument of I back to I: the branch
    outcome (i, x) is forwarded unchanged to x."""
    branches = _minimal_branches(I, tol)
    if not branches:
        raise PreconditionViolated("instrument has no nonvanishing operation")
    processors = {pl: _forwarding(I.dim_out, I.labels, src) for pl, src, _ in branches}
    return _checked(detailed_instrument(I, tol), processors, I, tol)


def witness_original_to_detailed(I: Instrument, tol: Tolerance = DEFAULT_TOL):
    """Witness from I to its detailed instrument, present iff the minimal
    Kraus matrices of each operation have pairwise orthogonal products.

    When K_ix† K_jx = 0 for i != j the ranges of the branches are mutually
    orthogonal; measuring the range projectors after I recovers which branch
    fired.  _closed_processor sends the rest of the output space to the
    first detailed label, which no branch output reaches.
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
    processors = {}
    for x in I.labels:
        kraus = {pl: [] for pl in detailed.labels}
        for pl, K in per_src.get(x, []):
            kraus[pl] = [range_projector(K, tol)]
        processors[x] = _closed_processor(kraus, d, d)
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
    if not certificate_error(I, cert) <= tol.eq_abs:  # so that a NaN error fails
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


def _pull_back_all(src: Instrument, tgt: Instrument, stoch, tol) -> dict:
    """Processors realizing tgt from src, for indecomposable instruments and
    stoch (rows labeled by tgt) rebuilding A^src from A^tgt: the processor
    at x is the _pull_back of tgt through src's single Kraus matrix at x,
    weighted by column x of stoch.  A vanishing source outcome gets the
    trash channel, since nothing passes through it."""
    single = {x: K for _, x, K in _minimal_branches(src, tol)}
    vanished = {y: [] for y in tgt.labels}
    return {
        x: _pull_back(single[x], tgt, col, tol)
        if x in single
        else _closed_processor(vanished, src.dim_out, tgt.dim_out)
        for x, col in zip(src.labels, stoch.entries.T)
    }


def witness_indecomposable_equivalence(
    I: Instrument, J: Instrument, tol: Tolerance = DEFAULT_TOL
):
    """Two-way witnesses between indecomposable instruments, present exactly
    when their induced POVMs are post-processing equivalent.

    Both directions come from _pull_back_all: the forward processors are
    weighted by nu, which rebuilds A^I from A^J, and the backward ones by mu.
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
    return EquivalenceWitness(
        forward=_checked(I, _pull_back_all(I, J, nu, tol), J, tol),
        backward=_checked(J, _pull_back_all(J, I, mu, tol), I, tol),
        stoch_forward=mu,
        stoch_backward=nu,
    )


def witness_map_post_processing(I: Instrument, J: Instrument, tol: Tolerance = DEFAULT_TOL):
    """Witness from measure-and-prepare I to measure-and-prepare J, present
    exactly when A^J is a classical post-processing of A^I: the processor at
    x trashes I's output and prepares J's states with distribution μ_x."""
    _, cert_j = _measure_and_prepare_pair(I, J, tol)
    return _map_witness(I, J, cert_j, tol)


def _map_witnesses(I: Instrument, J: Instrument, tol: Tolerance = DEFAULT_TOL):
    """witness_map_post_processing in both directions, (I → J, J → I), with
    each instrument tested for measure-and-prepare once."""
    cert_i, cert_j = _measure_and_prepare_pair(I, J, tol)
    return _map_witness(I, J, cert_j, tol), _map_witness(J, I, cert_i, tol)


def _measure_and_prepare_pair(I: Instrument, J: Instrument, tol: Tolerance):
    """The measure-and-prepare certificates of I and J, which must exist and
    measure the same input space."""
    cert_i = is_measure_and_prepare(I, tol)
    cert_j = is_measure_and_prepare(J, tol)
    if cert_i is None:
        raise NotMeasureAndPrepare("first instrument is not measure-and-prepare")
    if cert_j is None:
        raise NotMeasureAndPrepare("second instrument is not measure-and-prepare")
    if I.dim_in != J.dim_in:
        raise DimensionMismatch("instruments measure different input spaces")
    return cert_i, cert_j


def _map_witness(I: Instrument, J: Instrument, cert_j, tol: Tolerance):
    mu = find_post_processing(induced_povm(I), induced_povm(J), tol)
    if mu is None:
        return None
    # J's states are diagonalized once; the processor at x weights the
    # prepared operations by row x of μ (a zero weight gives the zero operation)
    prepare = trash_and_prepare(np.ones(len(J)), cert_j.states, dim_in=I.dim_out, labels=J.labels)
    processors = {
        x: Instrument(
            prepare.dim_in,
            prepare.dim_out,
            [(y, scale_operation(op, m)) for (y, op), m in zip(prepare.outcomes, row)],
        )
        for x, row in zip(I.labels, mu.entries)
    }
    return _checked(I, processors, J, tol)


def luders_refinement_witness(I: Instrument, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Channels Φ^(x) recovering I from the Lüders instrument of its induced
    POVM: I_x = Φ^(x) ∘ (Lüders of A at x), as a dict label -> Φ^(x).

    Φ^(x) is the _pull_back of I, with weight one at x alone, through
    √A(x).  Its completion acts on the kernel of A(x), which the Lüders
    output at x never reaches, so composing with the Lüders instrument
    reproduces I outcome by outcome.  The processors are replayed against I
    before they are returned.

    The pull-back takes √A(x) = V† diag(s) V from the thin SVD of I's
    Kraus matrices at x, stacked, whose squared singular values are A(x)'s
    eigenvalues.  The Lüders Kraus matrix itself comes from an
    eigendecomposition of A(x), whose eigenvalue errors of eps·‖A(x)‖ its
    pseudo-inverse would magnify by 1/λ_min (the processors then miss trace
    preservation by 6e-5 at λ_min = 1e-12); the SVD's errors are magnified
    by 1/√λ_min only.
    """
    onehot = np.eye(len(I))
    processors = {}
    for i, (x, op) in enumerate(I.outcomes):
        _, s, vh = np.linalg.svd(op.kraus.reshape(-1, I.dim_in), full_matrices=False)
        processors[x] = _pull_back((vh.conj().T * s) @ vh, I, onehot[i], tol)
    return _checked(luders(induced_povm(I)), processors, I, tol).processors


def check_povm_necessary_condition(I: Instrument, J: Instrument, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Necessary condition for J being a post-processing of I when J is
    indecomposable: A^I must be a classical post-processing of A^J.  A False
    certifies that no post-processing from I to J exists."""
    if not is_indecomposable_instrument(J, tol):
        raise NotIndecomposable("condition only applies to indecomposable targets")
    return find_post_processing(induced_povm(J), induced_povm(I), tol) is not None
