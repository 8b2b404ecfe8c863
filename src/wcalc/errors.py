"""Exception taxonomy.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map them onto exit codes without string matching.
"""

from __future__ import annotations


class WcalcError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(WcalcError, ValueError):
    """A constructor parameter is outside its documented domain."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class LogDomainError(WcalcError, ValueError):
    """Operation left the representable log domain (e.g. log of a negative)."""


class TableExhaustedError(WcalcError, IndexError):
    """A table-backed sequence was asked for an index beyond its data."""

    def __init__(self, index: int, length: int):
        self.index = index
        self.length = length
        super().__init__(
            f"index {index} out of range for table of length {length}; "
            "tables never extrapolate"
        )


class HorizonError(InvalidParameterError):
    """The requested horizon is not an integer or is below the floor of the
    computation (config.need_horizon)."""

    def __init__(self, message: str):
        super().__init__("horizon", message)


class PreconditionError(WcalcError, ValueError):
    """A documented precondition could not be verified on the input.

    Carries the offending index, or a dict of the failed certificate, as
    its witness when one exists; a script's error record keeps it.
    """

    def __init__(self, message: str, witness: int | dict | None = None):
        self.witness = witness
        super().__init__(message)


class SupNotAttainedError(WcalcError, ValueError):
    """The defining supremum ran into the index cap before turning over."""


class MaximizerOnBoundaryError(WcalcError, ValueError):
    """A grid maximizer landed on the grid edge; the grid is too short."""


class OrderViolationError(WcalcError, ValueError):
    """Matrix elements are not pointwise ordered along the index grid."""

    def __init__(self, message: str, witness: tuple | None = None):
        self.witness = witness
        super().__init__(message)


class SourceError(WcalcError, ValueError):
    """Script parse/resolution error with a source position."""

    def __init__(self, message: str, line: int, column: int,
                 expected: tuple = ()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"line {line}, column {column}: {message}{hint}")
