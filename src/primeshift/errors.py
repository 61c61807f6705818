"""Exception types shared across the package."""


class PrimeShiftError(Exception):
    """Base class for every error raised by primeshift."""


class DomainError(PrimeShiftError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class ResourceError(PrimeShiftError):
    """A request would exceed a documented resource guard."""


class ParseError(PrimeShiftError, ValueError):
    """Malformed textual input."""


class ValidationError(PrimeShiftError, ValueError):
    """Well-formed input that violates a structural invariant."""
