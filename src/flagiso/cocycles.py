"""Roots of unity as exponents mod m, and 2-cocycles on subgroup supports.

A scalar is never a float: an element of mu_m is its exponent, an integer mod
m.  A cocycle sigma on a support subgroup H stores the exponent table of its
values, normalized so that sigma(e,h) = sigma(h,e) = 1 (exponent 0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Callable, Mapping, NamedTuple

from .errors import InvalidInput
from .groups import Subgroup
from .modlinalg import _diagonalize, _Diagonal, _solve

__all__ = [
    "Cocycle",
    "Corrector",
    "validate_cocycle",
    "trivial_cocycle",
    "cohomologous",
    "is_corrector",
    "transport",
]


@dataclass(frozen=True)
class Cocycle:
    """A normalized 2-cocycle on ``support`` with values in mu_order.

    ``values[i][j]`` is the exponent of sigma(h_i, h_j) where h_i, h_j run over
    ``support.members`` in order, reduced mod ``order``.  validate_cocycle
    checks tables from outside; trivial_cocycle, transport and pauli build
    cocycles by construction (all zero; moved along an isomorphism; a
    bilinear table).
    """

    support: Subgroup
    order: int
    values: tuple[tuple[int, ...], ...]
    _hash: int = field(init=False, repr=False, compare=False)  # computed once: memos key on it

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.support, self.order, self.values)))

    def __hash__(self) -> int:
        return self._hash

    def val(self, a: int, b: int) -> int:
        """Exponent of sigma(a, b); a, b are parent-group element indices."""
        index = self.support.index
        return self.values[index[a]][index[b]]


def _check_root_order(order: int) -> None:
    if order < 1:
        raise InvalidInput(f"root order must be >= 1, got {order}", code="cocycle-shape")


def trivial_cocycle(support: Subgroup, order: int = 1) -> Cocycle:
    """The all-zero table in mu_order, a cocycle by construction."""
    _check_root_order(order)
    n = len(support.members)
    return Cocycle(support, order, ((0,) * n,) * n)


def validate_cocycle(support: Subgroup, order: int, values) -> Cocycle:
    """Check shape, normalization, and the cocycle identity.

    The identity at (a, b, c) says (x_a x_b) x_c = x_a (x_b x_c) in K^sigma[H].
    The x_a that associate with every pair form the left nucleus, a subalgebra
    holding x_e, and each x_h is a product of generators' x_s up to a scalar,
    so the triples led by ``support.generators`` decide all triples: r |H|^2
    of them, r <= log2 |H|.  Only a failure scans every triple in member
    order, to name the first that fails.
    """
    _check_root_order(order)
    members = support.members
    n = len(members)
    if len(values) != n or any(len(row) != n for row in values):
        raise InvalidInput(
            f"cocycle table must be {n}x{n} following the support order",
            code="cocycle-shape",
        )
    tbl = []
    for row in values:
        out = []
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidInput(f"cocycle exponent {v!r} is not an integer", code="cocycle-shape")
            out.append(v % order)
        tbl.append(tuple(out))
    coc = Cocycle(support, order, tuple(tbl))
    name = support.group.name_of
    e = support.index[support.group.identity]
    for h in range(n):
        if tbl[e][h] or tbl[h][e]:
            raise InvalidInput(
                f"cocycle not normalized at ({name(members[e])},{name(members[h])})",
                code="cocycle-not-normalized",
            )
    prod = support.mul_table
    for a in map(support.index.__getitem__, support.generators):
        row_a = tbl[a]
        for b, (v_ab, ab) in enumerate(zip(row_a, prod[a])):
            # sigma(a,b) sigma(ab,c) = sigma(b,c) sigma(a,bc) for every c
            a_bc = map(row_a.__getitem__, prod[b])
            if any((v_ab + x - y - z) % order for x, y, z in zip(tbl[ab], tbl[b], a_bc)):
                _raise_first_failing_triple(coc)
    return coc


def _raise_first_failing_triple(coc: Cocycle) -> None:
    """Raise naming the first triple, in member order, where the identity fails."""
    tbl, prod, order, members = coc.values, coc.support.mul_table, coc.order, coc.support.members
    name = coc.support.group.name_of
    for a, b, c in itertools.product(range(len(members)), repeat=3):
        ab, bc = prod[a][b], prod[b][c]
        if (tbl[a][b] + tbl[ab][c] - tbl[b][c] - tbl[a][bc]) % order:
            raise InvalidInput(
                "cocycle identity fails at triple "
                f"({name(members[a])},{name(members[b])},{name(members[c])})",
                code="cocycle-identity",
            )


@dataclass(frozen=True)
class Corrector:
    """A map mu: support -> mu_order, the scaling part of x_h -> mu(h) x'_h."""

    support: Subgroup
    order: int
    exps: tuple[int, ...]  # by support position

    def __post_init__(self):
        if len(self.exps) != len(self.support.members):
            raise InvalidInput("corrector length must match support size")
        object.__setattr__(self, "exps", tuple(v % self.order for v in self.exps))

    @classmethod
    def from_map(cls, support: Subgroup, order: int, exp_of: Mapping[int, int] | Callable[[int], int]) -> Corrector:
        get = exp_of.__getitem__ if isinstance(exp_of, Mapping) else exp_of
        return cls(support, order, tuple(get(h) for h in support.members))

    def exp_of(self, h: int) -> int:
        return self.exps[self.support.index[h]]


def _check_same_support(sigma: Cocycle, tau: Cocycle) -> None:
    if sigma.support.group != tau.support.group or sigma.support.members != tau.support.members:
        raise InvalidInput("cocycles live on different supports", code="support-mismatch")


_Terms = tuple[tuple[int, int, int], ...]


class _System(NamedTuple):
    """A cached corrector system: the diagonalization, the (a, b, ab) of each
    row, by pivot r the terms (a, b, coeff) of row r of U, and the (a, x, ax)
    with x a generator, on which the corrector law is checked."""

    diag: _Diagonal
    pairs: _Terms
    pivots: tuple[_Terms, ...]
    law: _Terms


def cohomologous(sigma: Cocycle, tau: Cocycle) -> Corrector | None:
    """A corrector mu making x_h -> mu(h) x'_h an isomorphism K^sigma[H] -> K^tau[H].

    Both cocycles are embedded into mu_lcm and the exponent system
    u(a) + u(b) - u(ab) = s(a,b) - t(a,b) (mod lcm) over the non-identity
    pairs is solved exactly; None means the cocycles are not cohomologous.
    Identical cocycles, and any right-hand side that is 0 mod lcm, get u = 0
    with no system built.  Otherwise each pivot value (U rhs)_r is read off
    the cached pivot row r of U: a pivot its divisor does not divide makes the
    system infeasible, and else u = V y.  A u that keeps the corrector law on
    every pair is a solution, and the one a solve on all of U rhs gives, as
    both take y from the same pivot values.  A u that breaks it leaves the
    verdict to that full solve (_infeasible): None when a row of U rhs past
    the pivots is nonzero, else a solver error.

    The law is checked on the pairs (a, x) with x in ``sub.generators``:
    w = sigma - tau - du is a 2-cocycle with w(a, e) = -u(e) = 0, so
    w(a, bx) = w(a, b) + w(ab, x) - w(b, x) vanishes once w does on H x X.
    """
    _check_same_support(sigma, tau)
    sub = sigma.support
    if sigma.order == tau.order and sigma.values == tau.values:
        return Corrector(sub, sigma.order, (0,) * len(sub.members))
    L = lcm(sigma.order, tau.order)
    ks, kt = L // sigma.order, L // tau.order
    pos = _coboundary_rows(sub)[1]
    sv, tv = sigma.values, tau.values
    if not any((ks * sv[a][b] - kt * tv[a][b]) % L for a in pos for b in pos):
        return Corrector(sub, L, (0,) * len(sub.members))
    system = _corrector_system(sub, L)
    diag, _, pivots, law = system
    y = []
    for (g, inv, Lg), row in zip(diag.steps, pivots):
        c = sum(q * (ks * sv[a][b] - kt * tv[a][b]) for a, b, q in row) % L
        if c % g:
            return None  # as _solve finds at this pivot
        y.append((c // g) * inv % Lg)
    u = [sum(map(mul, row, y)) % L for row in diag.v]
    u.insert(sub.index[sub.group.identity], 0)
    # the rows are the corrector law on non-identity pairs (pairs with e hold by
    # normalization), so u is checked against the law on its generator pairs
    if any((u[a] + u[b] - u[ab] - ks * sv[a][b] + kt * tv[a][b]) % L for a, b, ab in law):
        return _infeasible(system, sigma, tau, L)
    return Corrector(sub, L, tuple(u))


def _infeasible(system: _System, sigma: Cocycle, tau: Cocycle, L: int) -> None:
    """None for a right-hand side whose pivot solution breaks the corrector
    law, when the solve on all of U rhs finds the system infeasible (a row
    past the pivots is nonzero).  A feasible solve would yield that same
    solution from the same pivot values, so then the solver is wrong."""
    ks, kt = L // sigma.order, L // tau.order
    sv, tv = sigma.values, tau.values
    if _solve(system.diag, [ks * sv[a][b] - kt * tv[a][b] for a, b, _ in system.pairs], L) is None:
        return None
    raise AssertionError("internal solver error: solution fails the original system")


@lru_cache(maxsize=64)
def _corrector_system(sub: Subgroup, L: int) -> _System:
    """The coboundary rows of ``sub`` diagonalized mod L (L >= 2), the positions
    (a, b, ab) of each row's pair and product, and by pivot r the terms
    (a, b, coeff) with (U rhs)[r] = sum of coeff * rhs at (a, b), taken from
    the pivot rows of U: a solve hashes no matrix and reads each pivot value
    off a few cocycle entries.  The law triples (a, x, ax) run over the
    non-identity a and the generators x."""
    rows, pos = _coboundary_rows(sub)
    prod = sub.mul_table
    diag = _diagonalize(rows, L)
    pairs = tuple((a, b, prod[a][b]) for a in pos for b in pos)
    rank = len(diag.steps)
    pivots = tuple(tuple((*pairs[i][:2], q) for i, q in row) for row in diag.u[:rank])
    gens = [sub.index[x] for x in sub.generators]
    return _System(diag, pairs, pivots, tuple((a, x, prod[a][x]) for a in pos for x in gens))


@lru_cache(maxsize=64)
def _coboundary_rows(sub: Subgroup) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The coefficients of u(a) + u(b) - u(ab) over the non-identity pairs (a, b)
    of ``sub``, one column per non-identity member, and the support positions of
    those members.  They depend on the support alone, so each is built once."""
    grp = sub.group
    e = grp.identity
    unknowns = [h for h in sub.members if h != e]
    col = {h: i for i, h in enumerate(unknowns)}
    rows = []
    for a in unknowns:
        for b in unknowns:
            coeff = [0] * len(unknowns)
            coeff[col[a]] += 1
            coeff[col[b]] += 1
            ab = grp.mul(a, b)
            if ab != e:
                coeff[col[ab]] -= 1
            rows.append(tuple(coeff))
    return tuple(rows), tuple(sub.index[h] for h in unknowns)


def is_corrector(mu: Corrector, sigma: Cocycle, tau: Cocycle) -> bool:
    """Exact check of sigma(a,b) mu(ab) = mu(a) mu(b) tau(a,b) on all pairs."""
    _check_same_support(sigma, tau)
    if mu.support.group != sigma.support.group or mu.support.members != sigma.support.members:
        return False
    grp = sigma.support.group
    L = lcm(mu.order, sigma.order, tau.order)
    km, ks, kt = L // mu.order, L // sigma.order, L // tau.order
    for a in sigma.support.members:
        for b in sigma.support.members:
            lhs = ks * sigma.val(a, b) + km * mu.exp_of(grp.mul(a, b))
            rhs = km * (mu.exp_of(a) + mu.exp_of(b)) + kt * tau.val(a, b)
            if (lhs - rhs) % L:
                return False
    return True


def transport(sigma: Cocycle, alpha: Mapping[int, int], target: Subgroup) -> Cocycle:
    """The cocycle sigma' on ``target`` with sigma'(alpha(h), alpha(h')) = sigma(h, h').

    ``alpha`` must be a bijective homomorphism from sigma's support onto
    ``target`` (element indices of the respective parent groups).  Checking
    alpha(a s) = alpha(a) alpha(s) for the source's generators s proves it for
    every word s by induction on length; only a failure scans every pair in
    member order, to name the first that fails.
    """
    src = sigma.support
    if sorted(alpha.keys()) != list(src.members):
        raise InvalidInput("transport map domain must be the source support", code="bad-isomorphism")
    if sorted(alpha.values()) != list(target.members):
        raise InvalidInput("transport map must be onto the target support", code="bad-isomorphism")
    gs, gt = src.group, target.group
    ts, tt = gs.table, gt.table
    if any(alpha[ts[a][s]] != tt[alpha[a]][alpha[s]] for s in src.generators for a in src.members):
        for a, b in itertools.product(src.members, repeat=2):
            if alpha[ts[a][b]] != tt[alpha[a]][alpha[b]]:
                raise InvalidInput(
                    "transport map is not a homomorphism at "
                    f"({gs.name_of(a)},{gs.name_of(b)})",
                    code="bad-isomorphism",
                )
    # src_at[p] is the source position of the member alpha sends to target position p
    src_at = [0] * len(src.members)
    for i, a in enumerate(src.members):
        src_at[target.index[alpha[a]]] = i
    tbl = tuple(tuple(map(sigma.values[i].__getitem__, src_at)) for i in src_at)
    return Cocycle(target, sigma.order, tbl)
