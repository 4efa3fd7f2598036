"""Exception types shared across the package.

Every error raised on bad user input derives from FlagisoError and carries a
short machine-readable ``code``; the CLI maps these to exit status 2.  Anything
else escaping to the CLI is a bug and maps to exit status 1.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "FlagisoError",
    "InvalidInput",
    "GroupMismatch",
    "BudgetExceeded",
    "UnsupportedInput",
]


class FlagisoError(Exception):
    """Base class for all expected (input-level) failures."""

    code = "error"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class InvalidInput(FlagisoError):
    """Malformed or inconsistent data supplied by the caller."""

    code = "invalid-input"


class GroupMismatch(InvalidInput):
    """Elements or structures from different ambient groups were mixed."""

    code = "group-mismatch"


class BudgetExceeded(InvalidInput):
    """A search or enumeration exceeded its configured budget."""

    code = "budget-exceeded"


class UnsupportedInput(InvalidInput):
    """Structurally valid input outside the supported fragment."""

    code = "unsupported-input"


def _listed(values: Sequence[object], pos: int, limit: int = 64) -> str:
    """values as a refusal shows them.  More than 16 entries, or an entry whose
    repr passes limit characters, are not echoed whole: the entry at pos, its
    repr cut to limit characters and a length, and the count say enough."""
    if len(values) <= 16 and all(len(repr(v)) <= limit for v in values):
        return str(values)
    shown = repr(values[pos])
    if len(shown) > limit:
        shown = f"{shown[:limit]}... ({len(shown)} characters)"
    return f"{shown} at position {pos} of {len(values)}"
