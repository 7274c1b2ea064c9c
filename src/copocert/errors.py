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


class DuplicateMinimalSupportError(CopocertError):
    """Two non-proportional zeros share a minimal support.

    Minimal zeros of a copositive matrix are unique per support up to positive
    scaling, so this state indicates an internal bug; it is surfaced instead
    of guessed away.
    """

    code = "DuplicateMinimalSupport"


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


class CandidateBudgetError(CopocertError):
    """The census would enumerate more candidates than the configured budget."""

    code = "ResourceGuard"


class CensusInvariantError(CopocertError):
    """A census record violates a structural invariant (diagnostic abort)."""

    code = "CensusInvariant"


class MatrixFormatError(CopocertError):
    """Matrix file could not be parsed; carries line/column diagnostics."""

    code = "ParseError"

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
