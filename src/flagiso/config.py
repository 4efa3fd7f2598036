"""Size caps and budgets.

The algorithms here are exact and exhaustive, so every potentially expensive
construction or enumeration is gated by an explicit cap.  Group order (checked
before a Cayley table is built or validated), isomorphism search and tuple
enumeration raise BudgetExceeded past their caps; the class-table cross-check
is skipped past its pair budget.  Budgets for the tuple enumeration can be
raised per run through the FLAGISO_BUDGET environment variable.
"""

from __future__ import annotations

import os

from .errors import InvalidInput

# groups above this order are refused before their table is built or checked;
# building and checking a table both take time quadratic in the order
GROUP_ORDER_CAP = 256

# backtracking search for group isomorphisms refuses domains above this order
ISO_SEARCH_CAP = 16

# default ceiling on |G|**n when enumerating all degree tuples
DEFAULT_CLASSIFY_BUDGET = 100_000

# cross-validation of a class table by pairwise isomorphism calls is skipped
# once the number of required calls exceeds this
DEFAULT_PAIR_BUDGET = 2_000

BUDGET_ENV_VAR = "FLAGISO_BUDGET"


def classify_budget(explicit: int | None = None) -> int:
    """Resolve the tuple-enumeration budget: argument, then env var, then default."""
    if explicit is not None:
        return explicit
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise InvalidInput(
                f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}",
                code="invalid-budget",
            )
    return DEFAULT_CLASSIFY_BUDGET
