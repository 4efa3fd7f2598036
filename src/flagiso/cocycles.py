"""Roots of unity as exponents mod m, and 2-cocycles on subgroup supports.

A scalar is never a float: an element of mu_m is its exponent, an integer mod
m.  A cocycle sigma on a support subgroup H stores the exponent table of its
values, normalized so that sigma(e,h) = sigma(h,e) = 1 (exponent 0).
"""

from __future__ import annotations

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
    checks tables from outside; transport and pauli build cocycles by
    construction (moved along an isomorphism; a bilinear table).
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


def trivial_cocycle(support: Subgroup, order: int = 1) -> Cocycle:
    n = len(support.members)
    return validate_cocycle(support, order, [[0] * n for _ in range(n)])


def validate_cocycle(support: Subgroup, order: int, values) -> Cocycle:
    """Check shape, normalization, and the cocycle identity on all triples."""
    if order < 1:
        raise InvalidInput(f"root order must be >= 1, got {order}", code="cocycle-shape")
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
    grp = support.group
    e = grp.identity
    name = grp.name_of
    for h in members:
        if coc.val(e, h) or coc.val(h, e):
            raise InvalidInput(
                f"cocycle not normalized at ({name(e)},{name(h)})", code="cocycle-not-normalized"
            )
    for a in members:
        for b in members:
            ab = grp.mul(a, b)
            v_ab = coc.val(a, b)
            for c in members:
                # sigma(a,b) sigma(ab,c) = sigma(b,c) sigma(a,bc)
                lhs = (v_ab + coc.val(ab, c)) % order
                rhs = (coc.val(b, c) + coc.val(a, grp.mul(b, c))) % order
                if lhs != rhs:
                    raise InvalidInput(
                        "cocycle identity fails at triple "
                        f"({name(a)},{name(b)},{name(c)})",
                        code="cocycle-identity",
                    )
    return coc


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
    row, and by pivot r the terms (a, b, coeff) of row r of U."""

    diag: _Diagonal
    pairs: _Terms
    pivots: tuple[_Terms, ...]


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
    diag, pairs, pivots = system
    y = []
    for (g, inv, Lg), row in zip(diag.steps, pivots):
        c = sum(q * (ks * sv[a][b] - kt * tv[a][b]) for a, b, q in row) % L
        if c % g:
            return None  # as _solve finds at this pivot
        y.append((c // g) * inv % Lg)
    u = [sum(map(mul, row, y)) % L for row in diag.v]
    u.insert(sub.index[sub.group.identity], 0)
    # the rows are the corrector law on non-identity pairs (pairs with e hold by
    # normalization), so u is checked against the law, pair by pair
    if any((u[a] + u[b] - u[ab] - ks * sv[a][b] + kt * tv[a][b]) % L for a, b, ab in pairs):
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
    off a few cocycle entries."""
    rows, pos = _coboundary_rows(sub)
    prod = sub.mul_table
    diag = _diagonalize(rows, L)
    pairs = tuple((a, b, prod[a][b]) for a in pos for b in pos)
    rank = len(diag.steps)
    pivots = tuple(tuple((*pairs[i][:2], q) for i, q in row) for row in diag.u[:rank])
    return _System(diag, pairs, pivots)


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
    ``target`` (element indices of the respective parent groups).
    """
    src = sigma.support
    if sorted(alpha.keys()) != list(src.members):
        raise InvalidInput("transport map domain must be the source support", code="bad-isomorphism")
    if sorted(alpha.values()) != list(target.members):
        raise InvalidInput("transport map must be onto the target support", code="bad-isomorphism")
    gs, gt = src.group, target.group
    for a in src.members:
        for b in src.members:
            if alpha[gs.mul(a, b)] != gt.mul(alpha[a], alpha[b]):
                raise InvalidInput(
                    "transport map is not a homomorphism at "
                    f"({gs.name_of(a)},{gs.name_of(b)})",
                    code="bad-isomorphism",
                )
    index = target.index
    n = len(target.members)
    tbl = [[0] * n for _ in range(n)]
    for a in src.members:
        for b in src.members:
            tbl[index[alpha[a]]][index[alpha[b]]] = sigma.val(a, b)
    return Cocycle(target, sigma.order, tuple(map(tuple, tbl)))
