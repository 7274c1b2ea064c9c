"""Domain exceptions shared across the package.

Every exception carries a short ``code`` string that the CLI prints in the
machine block, so scripted callers can dispatch on it without parsing
messages.
"""


class CopocertError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"


class NotCopositiveError(CopocertError):
    """An operation requiring a copositive matrix received one that is not."""

    code = "NotCopositive"

    def __init__(self, message="matrix is not copositive", violator=None):
        super().__init__(message)
        self.violator = violator


class NotUnitDiagonalError(CopocertError):
    """The entry graph is only defined for matrices with unit diagonal."""

    code = "NotUnitDiagonal"


class SupportCardinalityError(CopocertError):
    """A minimal zero support does not have cardinality two."""

    code = "SupportCardinalityNotTwo"


class AmbiguousPatternError(CopocertError):
    """Sign-pattern reconstruction needs exactly one bipartite component."""

    code = "AmbiguousPattern"


class InconsistentDiagonalError(CopocertError):
    """Diagonal entries are split across parity classes or lie outside the
    bipartite component, contradicting a unit diagonal."""

    code = "InconsistentDiagonal"


class ScalingConditionError(CopocertError):
    """The matrix is not a positive diagonal scaling of a {-1,0,1} pattern."""

    code = "ScalingConditionFails"


class NotExtremalError(CopocertError):
    """An operation requiring an extremal matrix received a non-extremal one."""

    code = "NotExtremalInput"


class InvariantError(CopocertError):
    """An internal self-check failed: exact division, LP optimality, or a
    certificate that does not re-verify.  Raised explicitly, so the checks
    also hold under ``python -O``; it always indicates a bug."""

    code = "InvariantViolated"


class CensusInvariantError(InvariantError):
    """A census record violates a structural invariant (diagnostic abort)."""

    code = "CensusInvariant"


class MatrixFormatError(CopocertError):
    """Matrix file could not be parsed; carries line/column diagnostics."""

    code = "ParseError"

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class OutputError(CopocertError):
    """A file named on the command line could not be written."""

    code = "WriteError"
