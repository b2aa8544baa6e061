"""Exception types shared across the package."""
from __future__ import annotations


class SkewGrowthError(Exception):
    """Base class for all package-specific errors."""


# ---------------------------------------------------------------- presentations

class PresentationError(SkewGrowthError, ValueError):
    """Invalid presentation data."""


class PresentationParseError(PresentationError):
    """Malformed presentation text; carries a 1-based line and column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}" + (f", column {column}" if column is not None else "") + ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column


class DuplicateGeneratorError(PresentationParseError):
    pass


class UnknownSymbolError(PresentationParseError):
    pass


class NonHomogeneousRelationError(PresentationError):
    """Relation whose two sides have different total degrees."""

    def __init__(self, message: str, lhs_degree=None, rhs_degree=None):
        super().__init__(message)
        self.lhs_degree = lhs_degree
        self.rhs_degree = rhs_degree


class NonPositiveDegreeError(PresentationError):
    pass


# ---------------------------------------------------------------- builtin registry

class UnknownBuiltinError(SkewGrowthError, ValueError):
    pass


class InvalidParamsError(SkewGrowthError, ValueError):
    pass


# ---------------------------------------------------------------- enumeration

class EnumerationError(SkewGrowthError, RuntimeError):
    pass


class CutoffTooLargeError(EnumerationError):
    """A table, or the poset built from it, would pass a size cap."""


class EmptyAlphabetError(EnumerationError):
    """Enumeration requested for a presentation with no generators."""


# ---------------------------------------------------------------- divisibility and towers

class InvalidGroundError(SkewGrowthError, ValueError):
    """Tower ground set is empty, contains the unit, or is not an antichain."""


# ---------------------------------------------------------------- series

class KeyKindMismatchError(SkewGrowthError, ValueError):
    pass


class CutoffMismatchError(SkewGrowthError, ValueError):
    pass


class NonUnitConstantTermError(SkewGrowthError, ValueError):
    pass


class MalformedKeyError(SkewGrowthError, ValueError):
    pass
