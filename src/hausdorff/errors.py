"""Exception taxonomy for the library.

Every failure mode callers are expected to handle has its own class so the
CLI can map errors to exit codes without string matching.
"""


class HausdorffError(Exception):
    """Base class for all domain errors raised by this package."""


class IncomparableDimensions(HausdorffError):
    """Two dimension values could not be separated within the precision cap
    and are not syntactically equal."""


class UndefinedSum(HausdorffError):
    """A measure sum hit (+inf) + (-inf)."""


class NotRepresentable(HausdorffError):
    """The requested set or function leaves the representable fragment,
    or a Cantor copy would split more than depth_cap times."""


class NotSupported(HausdorffError):
    """The operation's precondition excludes this input shape."""


class NotInLH(HausdorffError):
    """An argument is not absolutely integrable, so the function distance
    is undefined for it."""


class OrderNotVerified(HausdorffError):
    """A pointwise order precondition (0 <= f <= g) could not be verified."""


class MonotonicityViolated(HausdorffError):
    """A presented chain is not monotone in the required direction."""


class DisjointnessViolated(HausdorffError):
    """Pieces that must be pairwise disjoint overlap."""


class DoesNotConverge(HausdorffError):
    """The sequence has distinct liminf and limsup."""


class Unbounded(HausdorffError):
    """The operation needs a bounded set."""


class TooLarge(HausdorffError):
    """An enumeration or exponent bound was exceeded."""


class ParseError(HausdorffError):
    """A document failed to parse. Carries position information."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class ValidationError(HausdorffError):
    """A parsed document had the wrong shape or violated a field invariant."""
