"""Numerical toolkit for the post-processing partial order on quantum
instruments and POVMs: representations, structural classification,
constructive equivalence witnesses, and simulation by mixing and
post-processing."""

from .classify import (
    IdentityClassCertificate,
    MapPrepCertificate,
    certificate_error,
    identity_class_certificate,
    is_extreme,
    is_indecomposable_instrument,
    is_measure_and_prepare,
    is_post_processing_clean,
    is_trash_and_prepare,
)
from .errors import (
    DimensionMismatch,
    InstrOrderError,
    InvalidParameters,
    LabelMismatch,
    NotIndecomposable,
    NotIsometry,
    NotMeasureAndPrepare,
    OutcomeSetMismatch,
    ParseError,
    PreconditionViolated,
    SolverError,
    UnknownLabel,
)
from .instrument import (
    Instrument,
    QuantumOperation,
    State,
    apply,
    choi_distance,
    compose_post_processing,
    detailed_instrument,
    identity_instrument,
    induced_povm,
    instrument_distance,
    luders,
    measure_and_prepare,
    minimal_kraus,
    mix,
    pair_label,
    relabel_instrument,
    total_channel,
    tracked_mix,
    trash_and_prepare,
    validate_instrument,
    validate_state,
    zero_operation,
)
from .linalg import DEFAULT_TOL, Tolerance, partial_isometry_factor
from .order import (
    EquivalenceWitness,
    InstrumentWitness,
    check_povm_necessary_condition,
    instrument_equivalence,
    luders_refinement_witness,
    replay_witness,
    witness_detailed_to_original,
    witness_error,
    witness_identity_reversal,
    witness_indecomposable_equivalence,
    witness_map_post_processing,
    witness_original_to_detailed,
    witness_to_trash_and_prepare,
)
from .povm import (
    Grouping,
    Povm,
    StochasticMatrix,
    ValidationReport,
    apply_post_processing,
    find_post_processing,
    is_indecomposable_povm,
    is_trivial,
    max_effect_distance,
    minimal_sufficient,
    povm_equivalent,
    proportional_inequivalent_pair,
    relabel,
    trivial_povm,
    validate_povm,
)
from .randgen import (
    random_distribution,
    random_instrument,
    random_isometry,
    random_povm,
    random_rank1_povm,
    random_state,
    random_unitary,
)
from .serialize import Document, document_for, load, save
from .simulate import (
    SimulationProgram,
    is_isometric_channel,
    isometric_channel,
)

__version__ = "0.1.0"
