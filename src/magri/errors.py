"""Exception types shared across the package."""


class MagriError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(MagriError):
    """Operator and vector sizes are incompatible."""


class NotSkewAdjoint(MagriError):
    """An operation required a skew-adjoint operator and got something else."""


class NotClosed(MagriError):
    """A vector was required to be a variational gradient and is not."""


class NoSolution(MagriError):
    """A linear problem (integration, recursion step) has no solution."""


class ExponentOverflow(MagriError):
    """An exponent or a jet order left the range a packed monomial can hold."""


class ExprSyntaxError(MagriError):
    """Rejected input, with the 1-based line/column position of the error
    in the input text, or line = col = None for input that is not text
    (a JSON value)."""

    def __init__(self, message, line=1, col=1):
        super().__init__(message if line is None else f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


class ExponentError(ExprSyntaxError):
    """Negative exponent on a generator that is not the zeroth v jet."""
