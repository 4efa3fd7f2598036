"""Exhaustive class enumeration with self-verifying cross-checks.

enumerate_classes takes classify's table and, inside the pair budget,
replays the claimed class structure through the pairwise decision engine:
distinct representatives must come back non-isomorphic, and every degree
tuple must come back isomorphic to the representative of its canonical form,
with as many tuples reaching each representative as classify counted in its
orbit.  A disagreement is a bug, not an answer, and raises.
"""

from __future__ import annotations

import itertools

from .config import DEFAULT_PAIR_BUDGET
from .division import GradedDivisionAlgebra
from .groups import Group
from .iso import (
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    Classification,
    _least_form,
    classify,
    iso_algebras,
)
from .presentations import FlagPresentation, make_presentation

__all__ = ["enumerate_classes"]


def enumerate_classes(
    group: Group,
    blocks,
    division: GradedDivisionAlgebra,
    budget: int | None = None,
) -> Classification:
    """Classify all degree tuples for (group, blocks, division) up to isomorphism.

    Returns classify's result with pairwise_checked / membership_checked set
    to whether each cross-check ran within DEFAULT_PAIR_BUDGET.
    """
    cls = classify(group, blocks, division, budget)
    if sum(cls.orbit_sizes) != cls.total:
        raise AssertionError("orbit sizes do not partition the tuple space")

    reps = [
        make_presentation(division, cls.shape, rep) for rep in cls.representatives
    ]

    npairs = len(reps) * (len(reps) - 1) // 2
    cls.pairwise_checked = npairs <= DEFAULT_PAIR_BUDGET
    if cls.pairwise_checked:
        for a, b in itertools.combinations(reps, 2):
            verdict = iso_algebras(a, b)
            if verdict.kind != NOT_ISOMORPHIC:
                raise AssertionError(
                    f"representatives {a.degree_names()} and {b.degree_names()} "
                    "collapse under the pairwise engine"
                )

    cls.membership_checked = cls.total <= DEFAULT_PAIR_BUDGET
    if cls.membership_checked:
        by_rep = {rep.degrees: rep for rep in reps}
        positions = cls.shape.block_positions()
        reached = dict.fromkeys(by_rep, 0)
        for tup in itertools.product(range(group.size), repeat=cls.shape.n):
            p = FlagPresentation(division, cls.shape, tup)
            key = _least_form(division.support, positions, tup, cls.shifts)
            reached[key] += 1
            rep = by_rep[key]
            verdict = iso_algebras(p, rep)
            if verdict.kind != ISOMORPHIC:
                raise AssertionError(
                    f"tuple {p.degree_names()} fails to reach its representative "
                    f"{rep.degree_names()}"
                )
        if tuple(reached.values()) != cls.orbit_sizes:
            raise AssertionError(
                f"orbit sizes {cls.orbit_sizes} disagree with the tuples reaching each "
                f"representative {tuple(reached.values())}"
            )

    return cls
