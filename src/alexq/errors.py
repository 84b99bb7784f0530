"""Exception types shared across the package.

The CLI maps these onto exit codes: input problems (SpecError,
TableParseError, plain ValueError) are usage errors, EnumerationBudgetError
is the resource guard, ConsistencyError signals an internal invariant
violation that theory says cannot happen.
"""

from __future__ import annotations


class SpecError(ValueError):
    """A module/group/automorphism spec string failed to parse."""


class TableParseError(ValueError):
    """A Cayley-table file failed to parse.

    Carries the 1-based line (and, where meaningful, column) of the offense.
    """

    def __init__(self, message: str, line: int, column: int | None = None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")


class EnumerationBudgetError(RuntimeError):
    """An enumeration would exceed the fixed candidate budget."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""
