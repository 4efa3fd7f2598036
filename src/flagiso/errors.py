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


def _repr(value: object) -> str | None:
    """repr(value), or None where repr refuses: an int past the interpreter's
    limit on digits (4,300 by default), or a container holding one."""
    try:
        return repr(value)
    except ValueError:
        return None


def _listed(values: Sequence[object], pos: int, limit: int = 64) -> str:
    """values as a refusal shows them.  More than 16 entries, or an entry whose
    repr passes limit characters or cannot be made, are not echoed whole: the
    entry at pos, its repr cut to limit characters and a length (an int without
    a repr by its bit length), and the count say enough."""
    if len(values) <= 16:
        reprs = [_repr(v) for v in values]
        if all(r is not None and len(r) <= limit for r in reprs):
            return str(values)
    value = values[pos]
    shown = _repr(value)
    if shown is None and isinstance(value, int):
        sign = "a negative" if value < 0 else "an"
        shown = f"{sign} int of {value.bit_length()} bits"
    elif shown is None:
        shown = f"a {type(value).__name__} too long to show"
    elif len(shown) > limit:
        shown = f"{shown[:limit]}... ({len(shown)} characters)"
    return f"{shown} at position {pos} of {len(values)}"
