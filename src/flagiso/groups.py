"""Finite groups as Cayley tables, with subgroup and isomorphism search.

Elements are 0-based indices into a fixed enumeration; the table T satisfies
T[a][b] = a*b.  Groups compare equal when their tables coincide, so two
structurally identical groups loaded from different sources interoperate.
Names are display labels and take no part in equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .config import GROUP_ORDER_CAP, ISO_SEARCH_CAP
from .errors import BudgetExceeded, InvalidInput, _listed, _shown

__all__ = [
    "Group",
    "GroupElem",
    "Subgroup",
    "build_abelian",
    "validate_table",
    "subgroup_closure",
    "left_coset",
    "find_isomorphisms",
]


class Group:
    """An abstract finite group given by its multiplication table."""

    def __init__(self, table: Sequence[Sequence[int]], names: Sequence[str] | None = None):
        _check_order(len(table))
        tbl = tuple(tuple(row) for row in table)
        self.identity = _check_table(tbl)
        self.table = tbl
        self.size = len(tbl)
        if names is None:
            names = [f"g{i}" for i in range(self.size)]
        if len(names) != self.size:
            raise InvalidInput(
                f"expected {self.size} element names, got {len(names)}", code="bad-names"
            )
        self.names = tuple(str(n) for n in names)
        if len(set(self.names)) != self.size:
            raise InvalidInput("element names must be distinct", code="bad-names")
        self._index_of_name = {n: i for i, n in enumerate(self.names)}
        self._inv = _build_inverses(tbl, self.identity)
        self._hash = hash(tbl)  # a Group is never changed, and hashing the table is O(|G|^2)

    # -- arithmetic on element indices -------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, a: int, g: int) -> int:
        """Return g^-1 * a * g."""
        gi = self._inv[g]
        return self.table[self.table[gi][a]][g]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self._inv[a], -k)
        acc = self.identity
        for _ in range(k):
            acc = self.table[acc][a]
        return acc

    def order_of(self, a: int) -> int:
        acc, n = a, 1
        while acc != self.identity:
            acc = self.table[acc][a]
            n += 1
        return n

    # -- element access -----------------------------------------------------

    def elem_by_name(self, name: str) -> GroupElem:
        try:
            return GroupElem(self, self._index_of_name[name])
        except KeyError:
            raise InvalidInput(f"unknown element name {name!r}", code="bad-element") from None

    def name_of(self, i: int) -> str:
        return self.names[i]

    def elements(self) -> range:
        return range(self.size)

    # -- identity & comparison ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Group) and self.table == other.table

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Group(order={self.size})"


@dataclass(frozen=True)
class GroupElem:
    """An element of a concrete Group, as returned by Group.elem_by_name."""

    group: Group
    index: int


@dataclass(frozen=True)
class Subgroup:
    """A subgroup H of ``group``, stored as the sorted tuple of member indices.

    ``index[h]`` is the position of member h in ``members``; ``coset_rep[x]``
    is the least element of the left coset xH, for every x in the group;
    ``mul_table[x][y]`` is the position of the product of the members at
    positions x and y; ``generators`` generate H; ``central`` says whether
    every member commutes with every element of the group (decided on the
    generators: the centralizer is a subgroup).  One closure walk over the
    members decides closure, as a set holding e is closed iff the walk reaches
    nothing outside it; only a set that is not is scanned in member order, to
    name the first product that escapes.
    Every cocycle and corrector on this support reads ``index``, so it must
    never be written to.
    """

    group: Group
    members: tuple[int, ...]
    index: dict[int, int] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)  # computed once: memos key on it

    def __post_init__(self):
        for a in self.members:
            if not isinstance(a, int) or isinstance(a, bool):
                raise InvalidInput(
                    f"cannot interpret {_shown(a)} as a group element", code="bad-element"
                )
        mem = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", mem)
        g = self.group
        if not mem or any(not 0 <= a < g.size for a in mem):
            raise InvalidInput("subgroup members out of range", code="bad-subgroup")
        index = {h: i for i, h in enumerate(mem)}
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_hash", hash((g, mem)))
        if g.identity not in index:
            raise InvalidInput("subgroup must contain the identity", code="bad-subgroup")
        if len(_closure(g.table, g.identity, mem)[1]) > len(mem):
            for a, b in itertools.product(mem, repeat=2):
                if g.mul(a, b) not in index:
                    raise InvalidInput(
                        f"set not closed: {g.name_of(a)}*{g.name_of(b)} escapes",
                        code="bad-subgroup",
                    )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set of H, without the identity (empty for the trivial subgroup)."""
        g = self.group
        by_order = sorted(self.members, key=lambda a: -g.order_of(a))
        return tuple(_closure(g.table, g.identity, by_order)[0])

    @cached_property
    def mul_table(self) -> tuple[tuple[int, ...], ...]:
        tbl, index = self.group.table, self.index
        return tuple(tuple(index[tbl[a][b]] for b in self.members) for a in self.members)

    @cached_property
    def central(self) -> bool:
        tbl = self.group.table
        return all(tbl[h][x] == tbl[x][h] for h in self.generators for x in self.group.elements())

    @cached_property
    def coset_rep(self) -> tuple[int, ...]:
        rep = [-1] * self.group.size
        for x in self.group.elements():
            if rep[x] < 0:
                coset = left_coset(x, self)
                for y in coset:
                    rep[y] = coset[0]
        return tuple(rep)


# -- construction ------------------------------------------------------------


def build_abelian(factors: Sequence[int]) -> Group:
    """Direct product of cyclic groups Z_f1 x ... x Z_fk, row-major element order.

    Elements are named "(c1,...,ck)" by their coordinate vectors, with the last
    coordinate varying fastest.
    """
    factors = list(factors)
    if not factors:
        raise InvalidInput("every factor must be at least 2, got []", code="invalid-input")
    for pos, f in enumerate(factors):
        if not isinstance(f, int) or isinstance(f, bool):
            need = "be an integer"
        elif f < 2:
            need = "be at least 2"
        else:
            continue
        raise InvalidInput(
            f"every factor must {need}, got {_listed(factors, pos)}", code="invalid-input"
        )
    size = 1
    for f in factors:
        size *= f
        if size.bit_length() > 64:  # far past the cap: a longer product only costs time
            break
    _check_order(size)

    # append one factor at a time as the new fastest coordinate: element (a, x)
    # of (Z_f1 x ... ) x Z_f has index a*f + x, so (a, x)(b, y) = (ab, x + y)
    table = [[0]]
    for f in factors:
        table = [
            [ab * f + (x + y) % f for ab in row_a for y in range(f)]
            for row_a in table
            for x in range(f)
        ]
    names = ["(" + ",".join(map(str, c)) + ")" for c in itertools.product(*map(range, factors))]
    return Group(table, names)


def validate_table(table: Sequence[Sequence[int]], names: Sequence[str] | None = None) -> Group:
    """Build a Group from a raw table, rejecting non-groups with a specific code."""
    return Group(table, names)


def _check_order(size: int) -> None:
    """Refuse an order past the cap; an order wider than 64 bits is not printed."""
    if size > GROUP_ORDER_CAP:
        shown = size if size.bit_length() <= 64 else "of more than 64 bits"
        raise BudgetExceeded(f"group order {shown} exceeds the cap of {GROUP_ORDER_CAP}")


def _check_table(tbl: tuple[tuple[int, ...], ...]) -> int:
    """Reject anything but a group table; return the identity's index."""
    n = len(tbl)
    if n == 0:
        raise InvalidInput("empty table", code="non-latin")
    for row in tbl:
        if len(row) != n:
            raise InvalidInput("table is not square", code="non-latin")
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise InvalidInput(f"table entry {v!r} out of range", code="non-latin")
    full = set(range(n))
    for i, row in enumerate(tbl):
        if set(row) != full:
            raise InvalidInput(f"row {i} is not a permutation", code="non-latin")
    for j, col in enumerate(zip(*tbl)):
        if set(col) != full:
            raise InvalidInput(f"column {j} is not a permutation", code="non-latin")
    e = None
    for i in range(n):
        if all(tbl[i][b] == b for b in range(n)) and all(tbl[a][i] == a for a in range(n)):
            e = i
            break
    if e is None:
        raise InvalidInput("no two-sided identity", code="no-identity")
    # Light's test: the s with (a*s)*c = a*(s*c) for all a, c are closed under
    # products, and every element is a left-normed product e*s1*...*sk of the
    # generators, so checking the generators checks the whole table
    for s in _closure(tbl, e, range(n))[0]:
        row_s = tbl[s]
        # a_sc(row of a) is the tuple of a*(s*c) over all c: S is nonempty only when
        # n >= 2, and itemgetter of two or more indices returns a tuple
        a_sc = itemgetter(*row_s)
        for a, row_a in enumerate(tbl):
            row_as = tbl[row_a[s]]
            if a_sc(row_a) != row_as:
                c = next(c for c in range(n) if row_as[c] != row_a[row_s[c]])
                raise InvalidInput(
                    f"not associative at triple ({a},{s},{c})", code="non-associative"
                )
    return e


def _closure(
    tbl: tuple[tuple[int, ...], ...], e: int, candidates: Iterable[int]
) -> tuple[list[int], list[int]]:
    """Greedy generators S drawn from candidates, and the members e*s1*...*sk they reach.

    Take each candidate not yet reached as a new generator and close the
    reached set under right multiplication by S.  Members come in the order
    first reached, so each one after e is x*s for an earlier member x and some
    s in S.  In a finite group the members are the subgroup S generates and
    each new generator at least doubles it, so |S| <= log2|G|; on a loop S may
    grow to every candidate.
    """
    members = [e]
    reached = {e}
    gens: list[int] = []
    for s in candidates:
        if s in reached:
            continue
        gens.append(s)
        # members reached so far need only the new generator; each new one needs all
        old, i = len(members), 0
        while i < len(members):
            for g in (s,) if i < old else gens:
                x = tbl[members[i]][g]
                if x not in reached:
                    reached.add(x)
                    members.append(x)
            i += 1
    return gens, members


def _build_inverses(tbl: tuple[tuple[int, ...], ...], e: int) -> tuple[int, ...]:
    inv = [0] * len(tbl)
    for a in range(len(tbl)):
        inv[a] = tbl[a].index(e)
    return tuple(inv)


# -- subgroups ----------------------------------------------------------------


def subgroup_closure(group: Group, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the seed elements."""
    seed = list(seed)
    for a in seed:
        if not isinstance(a, int) or isinstance(a, bool):
            raise InvalidInput(
                f"cannot interpret {_shown(a)} as a group element", code="bad-element"
            )
        if not 0 <= a < group.size:
            raise InvalidInput(f"element index {_shown(a)} out of range", code="bad-element")
    # in a finite group, the right products of the seed already form the subgroup
    return Subgroup(group, tuple(_closure(group.table, group.identity, seed)[1]))


def left_coset(g: int, sub: Subgroup) -> tuple[int, ...]:
    """The left coset g*H as a sorted tuple; its first entry is the canonical rep."""
    grp = sub.group
    return tuple(sorted(grp.mul(g, h) for h in sub.members))


# -- isomorphism search --------------------------------------------------------


def _as_carrier(x: Group | Subgroup) -> tuple[tuple[int, ...], Group]:
    if isinstance(x, Group):
        return tuple(x.elements()), x
    return x.members, x.group


def find_isomorphisms(h1: Group | Subgroup, h2: Group | Subgroup) -> list[dict[int, int]]:
    """All group isomorphisms h1 -> h2 as element-index maps, over the images of generators.

    Accepts plain groups or subgroups (maps are between parent-group indices in
    the latter case).  Returns [] when none exist; results are deterministic.
    """
    elems1, g1 = _as_carrier(h1)
    elems2, g2 = _as_carrier(h2)
    if len(elems1) > ISO_SEARCH_CAP or len(elems2) > ISO_SEARCH_CAP:
        raise BudgetExceeded(f"isomorphism search capped at order {ISO_SEARCH_CAP}")
    if len(elems1) != len(elems2):
        return []
    order1 = {a: g1.order_of(a) for a in elems1}
    order2 = {a: g2.order_of(a) for a in elems2}
    if sorted(order1.values()) != sorted(order2.values()):
        return []

    by_order: dict[int, list[int]] = {}
    for a in elems2:
        by_order.setdefault(order2[a], []).append(a)
    gens, members = _closure(g1.table, g1.identity, sorted(elems1, key=lambda a: -order1[a]))
    t1, t2 = g1.table, g2.table

    found: list[dict[int, int]] = []
    for images in itertools.product(*(by_order.get(order1[s], []) for s in gens)):
        # each member after the identity is x*s for an earlier member x, so one
        # pass over the members extends f by f(x*s) = f(x)*f(s), and checks it
        steps = tuple(zip(gens, images))
        f = {g1.identity: g2.identity}
        if all(
            f.setdefault(t1[x][s], y := t2[f[x]][img]) == y for x in members for s, img in steps
        ):
            # f(x*s) = f(x)*f(s) for every member x and generator s, so f is a
            # homomorphism into h2; injective, it is an isomorphism
            if len(set(f.values())) == len(elems2):
                found.append(f)
    return found
