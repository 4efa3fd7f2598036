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
from typing import Callable, Mapping, NamedTuple

from .errors import InvalidInput
from .groups import Subgroup, _closure
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
    if any(_failing_pair(tbl, prod, order, support.index[x]) for x in support.generators):
        _raise_first_failing_triple(coc)
    return coc


def _failing_pair(tbl, prod, order: int, a: int) -> tuple[int, int] | None:
    """The first (b, c) in member order where the identity fails at the
    triple (a, b, c), by support positions, or None."""
    row_a = tbl[a]
    for b, (v_ab, ab) in enumerate(zip(row_a, prod[a])):
        # sigma(a,b) sigma(ab,c) = sigma(b,c) sigma(a,bc) for every c
        a_bc = map(row_a.__getitem__, prod[b])
        bad = [(v_ab + x - y - z) % order for x, y, z in zip(tbl[ab], tbl[b], a_bc)]
        if any(bad):
            return b, next(c for c, v in enumerate(bad) if v)
    return None


def _raise_first_failing_triple(coc: Cocycle) -> None:
    """Raise naming the first triple, in member order, where the identity fails.

    The leads a that keep it on every (b, c) form the left nucleus N, a
    subgroup (see validate_cocycle), so the subgroup that passing leads
    generate is skipped: each lead that passes at least doubles it, so at
    most log2 |N| + 1 leads are row-checked, the last the least outside N.
    """
    tbl, prod, order, sub = coc.values, coc.support.mul_table, coc.order, coc.support
    e = sub.index[sub.group.identity]
    passed: list[int] = []
    inside = {e}
    for a in range(len(tbl)):
        if a in inside:
            continue
        failure = _failing_pair(tbl, prod, order, a)
        if failure is None:
            passed.append(a)
            inside = set(_closure(prod, e, passed)[1])
            continue
        name, members = sub.group.name_of, sub.members
        b, c = failure
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


class _System(NamedTuple):
    """A cached corrector system: the diagonalization and the (a, x) of each row."""

    diag: _Diagonal
    pairs: tuple[tuple[int, int], ...]


def cohomologous(sigma: Cocycle, tau: Cocycle) -> Corrector | None:
    """A corrector mu making x_h -> mu(h) x'_h an isomorphism K^sigma[H] -> K^tau[H].

    Both cocycles are embedded into mu_lcm and the exponent system
    u(a) + u(x) - u(ax) = s(a,x) - t(a,x) (mod lcm) over the pairs (a, x),
    a != e and x in the support's generators, is solved exactly; None means
    the cocycles are not cohomologous.  Those rows have the solutions of the
    system over every pair (see _keeps_law), and a u they yield is checked
    against the corrector law, a failure being a solver error.  A right-hand
    side that is 0 mod lcm gets u = 0 with no system built: in one order only
    identical (reduced) tables give one, and across two orders the law decides
    u = 0.
    """
    _check_same_support(sigma, tau)
    sub = sigma.support
    if sigma.order == tau.order and sigma.values == tau.values:
        return Corrector(sub, sigma.order, (0,) * len(sub.members))
    L = lcm(sigma.order, tau.order)
    if sigma.order != tau.order and _keeps_law([0] * len(sub.members), sigma, tau, L):
        return Corrector(sub, L, (0,) * len(sub.members))
    ks, kt = L // sigma.order, L // tau.order
    sv, tv = sigma.values, tau.values
    system = _corrector_system(sub, L)
    u = _solve(system.diag, [ks * sv[a][x] - kt * tv[a][x] for a, x in system.pairs], L)
    if u is None:
        return None
    u.insert(sub.index[sub.group.identity], 0)
    if not _keeps_law(u, sigma, tau, L):
        raise AssertionError("internal solver error: solution fails the original system")
    return Corrector(sub, L, tuple(u))


def _keeps_law(u: list[int], sigma: Cocycle, tau: Cocycle, L: int) -> bool:
    """Whether sigma(a,b) mu(ab) = mu(a) mu(b) tau(a,b) for all a, b in the
    support of the normalized cocycles sigma and tau, with mu's exponents
    mod L (a multiple of both orders) given by support position in u.

    The law is read at mu(e) and on the pairs (a, x) with x in the support's
    generators X.  w = sigma - tau - du is a 2-cocycle with w(a, e) = -u(e),
    so once u(e) = 0 and w vanishes on H x X, w(a, bx) = w(a, b) + w(ab, x) -
    w(b, x) makes w vanish on every pair: r |H| pairs, not |H|^2.
    """
    sub = sigma.support
    if u[sub.index[sub.group.identity]] % L:
        return False
    ks, kt = L // sigma.order, L // tau.order
    gens = [(x, u[x]) for x in map(sub.index.__getitem__, sub.generators)]
    for ua, s, t, prod_a in zip(u, sigma.values, tau.values, sub.mul_table):
        for x, ux in gens:
            if (ua + ux - u[prod_a[x]] - ks * s[x] + kt * t[x]) % L:
                return False
    return True


@lru_cache(maxsize=64)
def _corrector_system(sub: Subgroup, L: int) -> _System:
    """The coefficients of u(a) + u(x) - u(ax) over the pairs (a, x) of
    ``sub`` with a != e and x in its generators, one column per non-identity
    member, diagonalized mod L (L >= 2), and the support positions (a, x) of
    each row's pair: r (|H| - 1) rows, where every non-identity pair would
    give (|H| - 1)^2 with the same solutions.  Built once per support and L."""
    prod = sub.mul_table
    e = sub.index[sub.group.identity]
    pos = [a for a in range(len(prod)) if a != e]
    col = {a: i for i, a in enumerate(pos)}
    gens = [sub.index[x] for x in sub.generators]
    pairs = tuple((a, x) for a in pos for x in gens)
    rows = []
    for a, x in pairs:
        coeff = [0] * len(pos)
        coeff[col[a]] += 1
        coeff[col[x]] += 1
        if prod[a][x] != e:
            coeff[col[prod[a][x]]] -= 1
        rows.append(coeff)
    return _System(_diagonalize(rows, L), pairs)


def is_corrector(mu: Corrector, sigma: Cocycle, tau: Cocycle) -> bool:
    """Exact check of sigma(a,b) mu(ab) = mu(a) mu(b) tau(a,b) on all pairs,
    decided as cohomologous checks its solutions (_keeps_law): sigma and tau
    must be normalized cocycles, as validate_cocycle and pauli make them."""
    _check_same_support(sigma, tau)
    if mu.support.group != sigma.support.group or mu.support.members != sigma.support.members:
        return False
    L = lcm(mu.order, sigma.order, tau.order)
    return _keeps_law([L // mu.order * v for v in mu.exps], sigma, tau, L)


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
