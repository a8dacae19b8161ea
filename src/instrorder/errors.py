"""Exception types shared across the library."""


class InstrOrderError(Exception):
    """Base class for all errors raised by this library."""


class PreconditionViolated(InstrOrderError):
    """An operation was called on inputs that break its stated precondition."""


class DimensionMismatch(InstrOrderError):
    """Hilbert-space dimensions of the arguments are incompatible."""


class LabelMismatch(InstrOrderError):
    """Outcome labels of a stochastic matrix do not match the POVM."""


class OutcomeSetMismatch(InstrOrderError):
    """Processor instruments do not share a common outcome set."""


class UnknownLabel(InstrOrderError):
    """An outcome label is not present in the instrument or POVM."""


class NotIndecomposable(InstrOrderError):
    """The operation requires an indecomposable instrument."""


class NotMeasureAndPrepare(InstrOrderError):
    """The operation requires a measure-and-prepare instrument."""


class NotIsometry(InstrOrderError):
    """The supplied operator is not an isometry."""


class InvalidParameters(InstrOrderError):
    """Generator parameters are out of range."""


class SolverError(InstrOrderError, RuntimeError):
    """An internal numerical procedure failed, so the question has no answer."""


class ParseError(InstrOrderError):
    """A document could not be parsed; the message names the offending field."""

