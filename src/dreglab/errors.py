"""Exception types shared across the package.

Validation failures raise the most specific subclass available so callers
can distinguish "your input is malformed" from "an internal theorem-level
invariant broke" (the latter always indicates a bug, never bad input).
"""

from __future__ import annotations

__all__ = [
    "DreglabError",
    "MatrixValidationError",
    "RowDegreeError",
    "ColDegreeError",
    "DuplicateIndexError",
    "ParseError",
    "InfeasibleSwitchError",
    "NoSwitchError",
    "BoundViolation",
    "ConsistencyError",
    "RejectionBudgetExceeded",
    "SizeGuardError",
    "NotSingularError",
    "WitnessConstructionError",
    "DimensionError",
    "PreconditionError",
]


class DreglabError(Exception):
    """Base class for all package-specific errors."""


class MatrixValidationError(DreglabError):
    """A proposed matrix is not d-biregular."""


class RowDegreeError(MatrixValidationError):
    """A row support does not contain exactly d column indices."""


class ColDegreeError(MatrixValidationError):
    """A column is hit by a number of rows different from d."""


class DuplicateIndexError(MatrixValidationError):
    """A row support lists the same column index twice."""


class ParseError(DreglabError):
    """Text input does not conform to the matrix serialization format.

    Carries optional ``line`` (1-based) and ``position`` (0-based token
    index within the line) attributes for error reporting.
    """

    def __init__(self, message: str, line: int | None = None, position: int | None = None):
        if line is not None:
            message = f"line {line}: {message}" if position is None else (
                f"line {line}, token {position}: {message}"
            )
        super().__init__(message)
        self.line = line
        self.position = position


class InfeasibleSwitchError(DreglabError):
    """A switching's feasibility pattern does not hold in the given matrix."""


class NoSwitchError(DreglabError):
    """Rejection sampling for a feasible switching exhausted its retry budget."""


class BoundViolation(DreglabError):
    """A proved counting bound failed on a concrete instance (a bug, not bad input)."""


class ConsistencyError(DreglabError):
    """Two exact computations that must agree did not (a bug, not bad input)."""


class RejectionBudgetExceeded(DreglabError):
    """The stub sampler rejected more proposals than the configured budget."""


class SizeGuardError(DreglabError):
    """An exhaustive or exponential-cost operation was asked to exceed its size guard."""


class NotSingularError(DreglabError):
    """An operation that requires a nontrivial kernel received a full-rank matrix."""


class WitnessConstructionError(DreglabError):
    """A proof-replay step could not construct the witness object it asserts exists."""


class DimensionError(DreglabError):
    """Vectors or bases with mismatched ambient dimensions were combined."""


class PreconditionError(DreglabError):
    """A checked hypothesis of a lemma-level helper does not hold for the given input."""
