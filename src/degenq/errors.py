"""Exception types shared across the package."""


class DegenqError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(DegenqError, ZeroDivisionError):
    """Division by the zero polynomial or zero rational function."""


class DimensionMismatch(DegenqError):
    """Matrix or vector dimensions are incompatible."""


class IndexOutOfRange(DegenqError, IndexError):
    """A generator or basis index is outside its valid range."""


class MissingGenerator(DegenqError, KeyError):
    """A representation does not supply a matrix for a required generator."""


class ParamsMismatch(DegenqError):
    """Two objects built over different (m, n) parameters were combined."""


class InvalidInput(DegenqError, ValueError):
    """A parameter or option value outside its valid range."""


class ResourceLimit(DegenqError):
    """A requested construction exceeds the configured dimension cap."""


class EqualMNUnsupported(DegenqError):
    """Markov-trace machinery requires m != n (quantum dimension nonzero)."""


class NotSimultaneouslyDiagonal(DegenqError):
    """Weight decomposition requires diagonal Cartan matrices in the working basis."""


class StrandMismatch(DegenqError):
    """A braid letter refers to a strand outside the declared strand count."""


class ExprSyntaxError(DegenqError):
    """Malformed expression or scalar text.  Carries the offending position."""

    def __init__(self, message: str, pos: int = -1):
        super().__init__(f"{message} (at position {pos})" if pos >= 0 else message)
        self.pos = pos
