"""Exception hierarchy shared by all qmeter modules."""


class QmeterError(Exception):
    """Base class for all toolkit-specific errors."""


class DimensionMismatch(QmeterError):
    """Operands act on different Hilbert-space dimensions or are not square."""


class NotHermitian(QmeterError):
    """Matrix exceeds the hermiticity tolerance."""


class DecompositionFailure(QmeterError):
    """Eigenvalue iteration did not converge."""


class TruncationError(QmeterError):
    """A truncated representation loses more probability than allowed."""


class UnknownObservable(QmeterError):
    """Observable name not among the loaded or built-in observables."""


class UnreachableOutcome(QmeterError):
    """tr{M'M} is numerically zero: the outcome never occurs, so nothing can
    be inferred from it."""


class InvalidWeights(QmeterError):
    """Mixture weights are negative or do not sum to one."""


class PreconditionViolated(QmeterError):
    """A mixture component fails its own uncertainty inequality."""


class CompletenessUnachievable(QmeterError):
    """No normalization can make the requested operator family complete."""


class IncompleteKrausSet(QmeterError):
    """The operation requires a complete measurement but the set is not."""


class NonUnitState(QmeterError):
    """A state vector is not normalized within tolerance."""


class InternalConsistencyError(QmeterError):
    """Two redundant computations of the same quantity disagree beyond
    tolerance: a numerical problem, not a user error."""


class SchemaError(QmeterError):
    """A JSON input does not match the expected schema."""
