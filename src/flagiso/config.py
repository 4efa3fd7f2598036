"""Size caps and budgets.

The algorithms here are exact and exhaustive, so every potentially expensive
construction or enumeration is gated by an explicit cap.  Group order (checked
before a Cayley table is built or validated), isomorphism search and tuple
enumeration raise BudgetExceeded past their caps; the class-table cross-check
is skipped past its pair budget.  The tuple enumeration's budget is raised
per call, through classify's budget argument or the CLI's --budget.
"""

from __future__ import annotations

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
