"""Graded division algebras as twisted group algebras K^sigma[H] inside G.

One basis vector x_h per support element h; multiplication
x_h x_h' = sigma(h,h') x_{hh'}.  Every homogeneous component has dimension 1,
so the data is exactly (support subgroup, cocycle).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cocycles import Cocycle, Corrector, cohomologous, transport, trivial_cocycle
from .errors import GroupMismatch, InvalidInput, _shown
from .groups import Group, GroupElem, Subgroup, find_isomorphisms

__all__ = [
    "GradedDivisionAlgebra",
    "trivial_division",
    "pauli",
    "shift_conjugate",
    "iso_division",
    "equiv_division",
]


@dataclass(frozen=True)
class GradedDivisionAlgebra:
    """A graded division algebra determined by its support and cocycle."""

    cocycle: Cocycle

    @property
    def support(self) -> Subgroup:
        return self.cocycle.support

    @property
    def group(self) -> Group:
        return self.cocycle.support.group

    @property
    def order(self) -> int:
        return self.cocycle.order

    def is_trivial(self) -> bool:
        return len(self.support.members) == 1


def _as_index(group: Group, x) -> int:
    """Coerce an element given as index, name, or GroupElem into an index of group."""
    if isinstance(x, GroupElem):
        if x.group != group:
            raise GroupMismatch("element belongs to a different group")
        return x.index
    if isinstance(x, str):
        return group.elem_by_name(x).index
    if isinstance(x, int) and not isinstance(x, bool):
        if not 0 <= x < group.size:
            raise InvalidInput(f"element index {_shown(x)} out of range", code="bad-element")
        return x
    raise InvalidInput(f"cannot interpret {_shown(x)} as a group element", code="bad-element")


def trivial_division(group: Group) -> GradedDivisionAlgebra:
    """D = K: support {e}, trivial cocycle, scalars in mu_1."""
    sub = Subgroup(group, (group.identity,))
    return GradedDivisionAlgebra(trivial_cocycle(sub, 1))


def pauli(t: int, group: Group, images) -> GradedDivisionAlgebra:
    """Clock-and-shift division grading of M_t embedded along (i,j) -> u^i v^j.

    ``images`` are the two generator images (u, v); both must have order t,
    commute, and span a subgroup of order t*t.  The cocycle is
    sigma(u^i1 v^j1, u^i2 v^j2) = exponent j1*i2 mod t.
    """
    if t < 2:
        raise InvalidInput(f"pauli grading needs t >= 2, got {t}", code="invalid-embedding")
    u, v = (_as_index(group, x) for x in images)
    for lbl, x in (("u", u), ("v", v)):
        if group.order_of(x) != t:
            raise InvalidInput(
                f"pauli image {lbl}={group.name_of(x)} has order {group.order_of(x)}, need {t}",
                code="invalid-embedding",
            )
    if group.mul(u, v) != group.mul(v, u):
        raise InvalidInput("pauli images must commute", code="invalid-embedding")
    coords: dict[int, tuple[int, int]] = {}
    for i in range(t):
        for j in range(t):
            x = group.mul(group.power(u, i), group.power(v, j))
            if x in coords:
                raise InvalidInput(
                    "pauli images do not embed Z_t x Z_t: "
                    f"u^{i} v^{j} collides with u^{coords[x][0]} v^{coords[x][1]}",
                    code="invalid-embedding",
                )
            coords[x] = (i, j)
    sub = Subgroup(group, tuple(coords))
    tbl = tuple(tuple(coords[a][1] * coords[b][0] % t for b in sub.members) for a in sub.members)
    return GradedDivisionAlgebra(Cocycle(sub, t, tbl))


def shift_conjugate(d: GradedDivisionAlgebra, g) -> GradedDivisionAlgebra:
    """The division algebra of the shifted flag: support g^-1 H g, cocycle transported."""
    grp = d.group
    gi = _as_index(grp, g)
    alpha = {h: grp.conj(h, gi) for h in d.support.members}
    target = Subgroup(grp, tuple(alpha.values()))
    return GradedDivisionAlgebra(transport(d.cocycle, alpha, target))


def iso_division(d: GradedDivisionAlgebra, d2: GradedDivisionAlgebra) -> Corrector | None:
    """Degree-preserving isomorphism decision: equal supports and cohomologous cocycles."""
    if d.group != d2.group:
        raise GroupMismatch("division algebras live over different groups")
    if d.support.members != d2.support.members:
        return None
    return cohomologous(d.cocycle, d2.cocycle)


def equiv_division(
    d: GradedDivisionAlgebra, d2: GradedDivisionAlgebra
) -> tuple[dict[int, int], Corrector] | None:
    """Equivalence decision: some support isomorphism alpha makes the cocycles cohomologous.

    The ambient groups may differ.  Returns the first (alpha, mu) in the
    deterministic search order, or None.
    """
    for alpha in find_isomorphisms(d.support, d2.support):
        moved = transport(d.cocycle, alpha, d2.support)
        mu = cohomologous(moved, d2.cocycle)
        if mu is not None:
            return alpha, mu
    return None
