"""Isomorphism and equivalence decisions with checkable witnesses.

A YES is decided on the paper's data for a graded isomorphism: a flag shift
g, a block-preserving permutation sigma (target position to source
position), correctors h in the division support, and a corrector mu from
D^g to D', related by the degree tuple relation

    tuple'[i] = tuple[sigma[i]] * h[sigma[i]] * g        (all i)

The witness carries that data, and the monomial map it induces (basis
element to scalar times basis element) is built on first read and checked
then, exactly, by the one check of a map, _map_report, which verify_witness
runs too; it reads the two presentations alone, decides on the generators
and names the failures of a refused map on every basis pair.  A loaded
witness carries its map as given.  NO answers carry either a separating
invariant or an exhausted-search certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import factorial, lcm, prod
from typing import NamedTuple

from .algebras import (
    BasisElem,
    GradedAlgebra,
    _coset_profiles,
    _layout,
    _products,
    basis_of,
)
from .cocycles import Corrector, is_corrector
from .config import classify_budget
from .division import GradedDivisionAlgebra, _as_index, equiv_division, iso_division, shift_conjugate
from .errors import BudgetExceeded, GroupMismatch, InvalidInput, UnsupportedInput
from .groups import Group
from .presentations import BlockShape, FlagPresentation, make_presentation

__all__ = [
    "ISOMORPHIC",
    "NOT_ISOMORPHIC",
    "EQUIVALENT",
    "NOT_EQUIVALENT",
    "INCONCLUSIVE",
    "Verdict",
    "InvariantMismatch",
    "SearchExhausted",
    "IsoWitness",
    "WitnessReport",
    "EquivWitness",
    "iso_pairs",
    "iso_algebras",
    "build_witness",
    "verify_witness",
    "invert_witness",
    "compose_witness",
    "equiv_check",
    "equiv_elementary",
    "verify_equiv_witness",
    "classify",
    "Classification",
    "canonical_form",
]

ISOMORPHIC = "ISOMORPHIC"
NOT_ISOMORPHIC = "NOT_ISOMORPHIC"
EQUIVALENT = "EQUIVALENT"
NOT_EQUIVALENT = "NOT_EQUIVALENT"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class InvariantMismatch:
    """A computable invariant separating the two inputs."""

    detail: str


@dataclass(frozen=True)
class SearchExhausted:
    """The complete criterion search failed.  shifts_tried counts the shifts
    decided: all of G for iso_algebras, the identity alone for iso_pairs."""

    shifts_tried: int
    detail: str
    invariant_mismatch: InvariantMismatch | None = None


@dataclass
class Verdict:
    kind: str
    witness: IsoWitness | None = None
    equiv_witness: EquivWitness | None = None
    certificate: InvariantMismatch | SearchExhausted | None = None
    reason: str | None = None


class _Derive:
    """The map of a witness the library derives (_witness): built from the
    witness's data and checked on the first read of images or exponents.  A
    private marker, so the public constructor still takes a map; copies and
    pickles of a witness keep the one marker."""

    def __reduce__(self):
        return "_DERIVE"


_DERIVE = _Derive()


class _MapField:
    """IsoWitness.images or .exponents: the value given, or, for a derived
    witness, the map its data induces, built and checked on the first read of
    either (_first_read) and kept.  A read whose check fails raises, and so
    does every later one."""

    def __init__(self, name: str):
        self.name = name

    def __get__(self, w, owner=None):
        if w is None:
            return self
        if w.__dict__[self.name] is _DERIVE:
            _first_read(w)
        return w.__dict__[self.name]

    def __set__(self, w, value):
        w.__dict__[self.name] = value


@dataclass
class IsoWitness:
    """Checkable isomorphism data plus the monomial map it induces: source basis
    position p goes to target position images[p] with scalar exponent
    exponents[p].  The constructor takes both.  A witness the library
    derives (_witness) builds its map on the first read of images or
    exponents, through mapping, equality, save_witness or verify_witness,
    and checks it then; a map that fails raises the engine error.  A witness
    made with a map, as a loaded one is, keeps it as given,
    unchecked: a loaded image outside the target basis stays a BasisElem, and
    a loaded map not on exactly the source basis has no images."""

    source: FlagPresentation
    target: FlagPresentation
    shift: int
    sigma: tuple[int, ...]  # target position -> source position
    correctors: tuple[int, ...]  # by source position, in supp D
    mu: Corrector  # corrector for D conjugated by the shift vs D'
    scalar_order: int
    images: tuple[int | BasisElem, ...] = field(repr=False)
    exponents: tuple[int, ...] = field(repr=False)

    @property
    def mapping(self) -> dict[BasisElem, tuple[BasisElem, int]]:
        """The map by basis element, source -> (target, exponent), built on each read."""
        target = basis_of(self.target)
        pairs = zip(basis_of(self.source), self.images, self.exponents)
        return {b: (target[t] if type(t) is int else t, exp) for b, t, exp in pairs}


# set after the dataclass is made, so both map fields stay required arguments
IsoWitness.images = _MapField("images")
IsoWitness.exponents = _MapField("exponents")


@dataclass(frozen=True)
class WitnessReport:
    ok: bool
    checked_pairs: int
    failures: tuple[str, ...]


# -- witness construction ------------------------------------------------------


def _data_failure(shape: BlockShape, sup, sigma=None, correctors=None) -> str | None:
    """Why sigma or the correctors fall outside the paper's description of a
    graded isomorphism, or None: sigma must be a block-preserving permutation
    of the positions, with one corrector per position, each in the division
    support (sup, member -> position).  Either may be None, and is then not
    checked."""
    n, blocks = shape.n, shape.blocks
    if sigma is not None:
        if set(map(type, sigma)) != {int} or sorted(sigma) != list(range(n)):
            return "sigma is not a permutation"
        # a permutation keeps the blocks iff no block's images reach past its end
        ends = itertools.accumulate(blocks)
        if any(max(sigma[end - m : end]) >= end for m, end in zip(blocks, ends)):
            return "sigma does not preserve blocks"
    if correctors is not None and (len(correctors) != n or not sup.keys() >= set(correctors)):
        return "correctors must lie in the division support"
    return None


def _validate_witness_data(
    p: FlagPresentation,
    p2: FlagPresentation,
    shift: int,
    sigma: tuple[int, ...],
    correctors: tuple[int, ...],
    mu: Corrector,
) -> None:
    if p.group != p2.group:
        raise GroupMismatch("witness endpoints are graded by different groups")
    grp = p.group
    if p.shape != p2.shape:
        raise InvalidInput("invalid witness data: block shapes differ", code="invalid-witness-data")
    if not 0 <= shift < grp.size:
        raise InvalidInput("invalid witness data: shift out of range", code="invalid-witness-data")
    failure = _data_failure(p.shape, p.division.support.index, sigma, correctors)
    if failure is not None:
        raise InvalidInput(f"invalid witness data: {failure}", code="invalid-witness-data")
    for i in range(p.shape.n):
        k = sigma[i]
        want = grp.mul(grp.mul(p.degrees[k], correctors[k]), shift)
        if p2.degrees[i] != want:
            raise InvalidInput(
                f"invalid witness data: tuple relation fails at position {i + 1}: "
                f"{grp.name_of(p2.degrees[i])} != {grp.name_of(want)}",
                code="invalid-witness-data",
            )
    shifted = shift_conjugate(p.division, shift)
    if shifted.support.members != p2.division.support.members:
        raise InvalidInput(
            "invalid witness data: the shift does not carry the support onto the target support",
            code="invalid-witness-data",
        )
    if mu.support.members != p2.division.support.members:
        raise InvalidInput(
            "invalid witness data: corrector support differs from the target support",
            code="invalid-witness-data",
        )
    if not is_corrector(mu, shifted.cocycle, p2.division.cocycle):
        raise InvalidInput(
            "invalid witness data: mu is not a corrector for the shifted cocycle pair",
            code="invalid-witness-data",
        )


def _witness(
    p: FlagPresentation,
    p2: FlagPresentation,
    shift: int,
    sigma: tuple[int, ...],
    mu: Corrector,
) -> IsoWitness:
    """The witness of the pair isomorphism with this shift, sigma and mu, in
    O(n): the correctors solve the tuple relation, h_k = g_k^-1 g'_i g^-1 for
    k = sigma(i), and the scalar order is lcm(m, m', mu.order).  Its map is
    built on first read (_monomial_map) and checked then (_first_read)."""
    grp = p.group
    ginv = grp.inv(shift)
    correctors = [0] * p.shape.n
    for i, k in enumerate(sigma):
        correctors[k] = grp.mul(grp.inv(p.degrees[k]), grp.mul(p2.degrees[i], ginv))
    order = lcm(p.division.order, p2.division.order, mu.order)
    return IsoWitness(p, p2, shift, sigma, tuple(correctors), mu, order, _DERIVE, _DERIVE)


def _monomial_map(w: IsoWitness) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The images and exponents of the map w's data induces, by source basis
    position: the one place a map is derived.

    With a_k = g^-1 h_k^-1 g and c = g^-1 h g, basis element (k,l,h) goes to
    (sigma^-1 k, sigma^-1 l, a_k c a_l^-1) scaled by
    mu(c) * sigma'(a_k, c) * sigma'(a_k c, a_l^-1) / sigma'(a_l, a_l^-1).
    The image's support element and scalar depend on (a_k, a_l, h) alone, so
    one table over h is built per distinct pair (a_k, a_l) of the cells, and
    the map is read off those tables by basis position, each cell's images
    offset to its target cell.
    """
    p, p2, shift, mu, order = w.source, w.target, w.shift, w.mu, w.scalar_order
    grp = p.group
    inv_sigma = [0] * p.shape.n
    for i, k in enumerate(w.sigma):
        inv_sigma[k] = i
    k2 = order // p2.division.order
    km = order // mu.order
    sup2 = p2.division.support
    index2 = sup2.index
    mul2 = sup2.mul_table
    vals2 = p2.division.cocycle.values
    # a_k, c and their inverses are members of the target support, by position there
    a_of = [index2[grp.conj(grp.inv(h), shift)] for h in w.correctors]
    conj = [grp.conj(h, shift) for h in p.division.support.members]
    c_of = [index2[c] for c in conj]
    mu_of = [km * mu.exp_of(c) for c in conj]

    def cell_images(a: int, b: int) -> tuple[list[int], list[int]]:
        """For a_k and a_l at target support positions a and b: the position of
        a_k c a_l^-1 and the scalar exponent, for each h by source position."""
        binv = index2[grp.inv(sup2.members[b])]
        row, va, back = mul2[a], vals2[a], vals2[b][binv]
        ys, exps = [], []
        for c, m in zip(c_of, mu_of):
            ac = row[c]
            ys.append(mul2[ac][binv])
            exps.append((m + k2 * (va[c] + vals2[ac][binv] - back)) % order)
        return ys, exps

    number = p.shape.cell_number
    k = len(c_of)
    cells = p.shape.cells()
    keys = [(a_of[i], a_of[j]) for i, j, _ in cells]
    tables = {key: cell_images(*key) for key in set(keys)}
    offsets = [number[inv_sigma[i], inv_sigma[j]] * k for i, j, _ in cells]
    images = [off + y for key, off in zip(keys, offsets) for y in tables[key][0]]
    exponents = [e for key in keys for e in tables[key][1]]
    return tuple(images), tuple(exponents)


def _first_read(w: IsoWitness) -> None:
    """Build the map of the derived witness w and keep it once _map_report
    accepts it.  A map it refuses is not kept: the report names the
    failures, and the engine error is raised."""
    images, exponents = _monomial_map(w)
    built = replace(w, images=images, exponents=exponents)
    p, p2 = w.source, w.target
    if not _map_report(p, p2, built, False).ok:
        report = _map_report(p, p2, built, True)
        raise AssertionError(
            f"engine produced a witness that fails verification: {report.failures[:3]}"
        )
    w.__dict__.update(images=images, exponents=exponents)


def build_witness(
    p: FlagPresentation,
    p2: FlagPresentation,
    shift,
    sigma,
    correctors,
    mu: Corrector,
) -> IsoWitness:
    """Assemble and fully populate a witness; rejects data violating the relation."""
    grp = p.group
    shift_i = _as_index(grp, shift)
    sigma_t = tuple(sigma)
    corr_t = tuple(_as_index(grp, h) for h in correctors)
    _validate_witness_data(p, p2, shift_i, sigma_t, corr_t, mu)
    return _witness(p, p2, shift_i, sigma_t, mu)


def _malformed(basis, dim2: int, m1: int, m2: int, w: IsoWitness) -> WitnessReport | None:
    """The report on w's map when it is no bijection on positions from the
    source basis onto a target basis of dim2 elements, or its scalar order
    does not embed both root groups mu_m1 and mu_m2; None when it passes."""
    dim = len(basis)
    images, exps, order = w.images, w.exponents, w.scalar_order
    if len(images) != dim or len(exps) != dim:
        return WitnessReport(False, 0, ("map is not defined on exactly the source basis",))
    if dim != dim2:
        return WitnessReport(False, 0, ("algebras have different dimensions",))
    if order < 1 or order % m1 or order % m2:
        return WitnessReport(False, 0, (f"scalar order {order} does not embed both mu_{m1} and mu_{m2}",))
    if set(map(type, images)) != {int} or min(images) < 0 or max(images) >= dim:
        return WitnessReport(False, 0, tuple(
            f"image of {tuple(b)} is not a basis element: {tuple(t) if isinstance(t, tuple) else t}"
            for b, t in zip(basis, images)
            if type(t) is not int or not 0 <= t < dim
        ))
    if len(set(images)) != dim:
        return WitnessReport(False, 0, ("map is not injective on basis elements",))
    return None


def _map_report(
    p: FlagPresentation, p2: FlagPresentation, w: IsoWitness, every: bool
) -> WitnessReport:
    """The check that w's map is an isomorphism of the graded algebras of p
    and p2, on the two presentations and their shared layouts alone: no
    algebra is realized and no degree array computed.  With every false it
    reads the generators and the generator walk of p's layout, and decides;
    with every true it reads every basis position and every nonzero product,
    and names each failure, in the all-pairs order.  checked_pairs is 0 when
    the map is malformed or moves a degree, and dim^2 otherwise.

    The checks, in order, each spelled out only when it fails:

    - the map is a bijection of bases on positions, with a scalar order that
      embeds both root groups (_malformed);
    - the degrees, g_i h g_j^-1 against g'_r h' g'_c^-1: of the generators
      S (GradedAlgebra.generators), or of every basis element;
    - the zero pattern, through one index map pi: pi(k) is the row of the
      image of the unit (k,k,e).  The map keeps every zero product zero and
      every nonzero product nonzero iff each image sits at (pi(row),
      pi(col)) and pi is injective.  The first is one comparison of each
      image's cell position (row * n + column on each side) with the one pi
      predicts; the second is checked on pi.  A failure is named by the
      nonzero products unit * b and b * unit whose images' product is zero;
    - the products s*b of a left factor s and a basis element b, in one
      loop: the image of s*b sits in the cell of f(s)*f(b), by the zero
      pattern, at the support position mul(h'_s, h'_b) (routing), with the
      scalar of f(s)*f(b) (scalars).

    Deciding suffices.  The x with f(x*y) = f(x)*f(y) for every y form a
    subspace T; T contains S, as each s*b keeps its zero pattern, its
    routing and its scalar.  T is closed under products: for s and w in T
    and every y,
        f(s*w*y) = f(s)*f(w*y) = f(s)*f(w)*f(y) = f(s*w)*f(y).
    By induction on word length T holds every product of elements of S, and
    every basis element is one up to a root of unity, so T is the algebra.
    So f is multiplicative, and the degree of f(b) for b a word in S is the
    product of its generators' degrees, by the grading law of the target:
    a multiplicative bijection that keeps the generators' degrees keeps all.

    The naming pass meets no routing or pi failure to name.  Once every
    degree holds, pi is injective: two units of degree e cannot share a
    cell (l,l), which holds one element of degree e.  With the zero pattern
    too, every product is routed right, as within a target cell the degree
    fixes the support element.  So the two passes accept the same maps.
    """
    shape, sup, sup2 = p.shape, p.division.support, p2.division.support
    layout, layout2 = _layout(shape, sup), _layout(p2.shape, sup2)
    basis = layout.basis
    dim = len(basis)
    m1, m2 = p.division.order, p2.division.order
    refused = _malformed(basis, len(layout2.basis), m1, m2, w)
    if refused is not None:
        return refused
    images, exps, order = w.images, w.exponents, w.scalar_order

    grp, cells2, members2 = p.group, p2.shape.cells(), sup2.members
    tbl, size2 = grp.table, len(members2)
    inv = [grp.inv(g) for g in p.degrees]
    inv2 = [grp.inv(g) for g in p2.degrees]
    moved = []
    for s in range(dim) if every else layout.generators:
        i, j, h = basis[s]
        r, c, _ = cells2[images[s] // size2]
        g = tbl[tbl[p.degrees[i]][h]][inv[j]]
        g2 = tbl[tbl[p2.degrees[r]][members2[images[s] % size2]]][inv2[c]]
        if g != g2:
            moved.append(
                f"degree mismatch at {tuple(basis[s])}: {grp.name_of(g)} -> {grp.name_of(g2)}"
            )
    if moved:
        return WitnessReport(False, 0, tuple(moved))

    n, n2, at, units = shape.n, p2.shape.n, layout.at, layout.units
    img_at = list(map(layout2.at.__getitem__, images))
    rows = [img_at[u] // n2 for u in units]  # pi
    cols = [img_at[u] % n2 for u in units]
    want = [c * n2 + r for c in cols for r in rows]  # by row * n + column
    if len(set(rows)) != n or list(map(want.__getitem__, at)) != img_at:
        img = list(map(layout2.basis.__getitem__, images))
        broken = {(units[b.row], q) for q, b in enumerate(basis) if cols[b.row] != img[q].row}
        broken.update((q, units[b.col]) for q, b in enumerate(basis) if img[q].col != rows[b.col])
        return WitnessReport(False, dim * dim, tuple(
            f"nonzero product {tuple(basis[s])} * {tuple(basis[b])} maps to a zero product"
            for s, b in sorted(broken)
        ))

    k1, k2 = order // m1, order // m2
    vals1, vals2, mul2 = p.division.cocycle.values, p2.division.cocycle.values, sup2.mul_table
    # a cell holds support position x at offset x, so an image's is its position mod |H'|
    img_sup = list(map(size2.__rmod__, images))
    walk = _products(shape, sup, range(dim)) if every else zip(*layout.walk)
    failures = []
    for s, b, x, y, pos in walk:
        u, v = img_sup[s], img_sup[b]
        lhs = k1 * vals1[x][y] + exps[pos]
        rhs = exps[s] + exps[b] + k2 * vals2[u][v]
        if img_sup[pos] != mul2[u][v] or (lhs - rhs) % order:
            failures.append(
                f"scalar mismatch at {tuple(basis[s])} * {tuple(basis[b])}: "
                f"exponent {lhs % order} != {rhs % order} (mod {order})"
            )
    return WitnessReport(not failures, dim * dim, tuple(failures))


def verify_witness(alg: GradedAlgebra, alg2: GradedAlgebra, w: IsoWitness) -> WitnessReport:
    """Exact check that the map is an isomorphism of graded algebras: bijective
    on bases, degree-preserving and multiplicative on all dim^2 basis pairs.

    _map_report decides, on the algebras' presentations, and names the
    failures of a map it refuses; alg.degree is not consulted.  A derived
    witness whose map was never read, given its own algebras, has the map
    built and decided once, here (_first_read), and kept."""
    if alg.group != alg2.group:
        raise GroupMismatch("witness endpoints are graded by different groups")
    p, p2 = alg.presentation, alg2.presentation
    if w.__dict__["images"] is _DERIVE and (p, p2) == (w.source, w.target):
        _first_read(w)  # the unread map is built and checked here, on its generator walk alone
        return WitnessReport(True, alg.dim**2, ())
    report = _map_report(p, p2, w, False)
    return report if report.ok else _map_report(p, p2, w, True)


def invert_witness(w: IsoWitness) -> IsoWitness:
    """Witness for the inverse isomorphism: shift g^-1, sigma^-1 and mu carried back."""
    # a loaded witness carries its data unchecked: check it before computing with it
    _validate_witness_data(w.source, w.target, w.shift, w.sigma, w.correctors, w.mu)
    p = w.source
    grp = p.group
    g = w.shift
    sigma = [0] * p.shape.n
    for i, k in enumerate(w.sigma):
        sigma[k] = i
    mu = Corrector.from_map(p.division.support, w.mu.order, lambda h: -w.mu.exp_of(grp.conj(h, g)))
    return _witness(w.target, p, grp.inv(g), tuple(sigma), mu)


def compose_witness(w1: IsoWitness, w2: IsoWitness) -> IsoWitness:
    """Witness for the composite isomorphism source(w1) -> target(w2)."""
    if w1.target != w2.source:
        raise InvalidInput("witnesses do not compose: endpoints differ", code="invalid-witness-data")
    for w in (w1, w2):
        _validate_witness_data(w.source, w.target, w.shift, w.sigma, w.correctors, w.mu)
    grp = w1.source.group
    order = lcm(w1.mu.order, w2.mu.order)
    k1, k2 = order // w1.mu.order, order // w2.mu.order
    g2inv = grp.inv(w2.shift)
    mu = Corrector.from_map(
        w2.target.division.support,
        order,
        lambda c: k1 * w1.mu.exp_of(grp.conj(c, g2inv)) + k2 * w2.mu.exp_of(c),
    )
    sigma = tuple(w1.sigma[k] for k in w2.sigma)
    return _witness(w1.source, w2.target, grp.mul(w1.shift, w2.shift), sigma, mu)


# -- isomorphism decisions -----------------------------------------------------


class _Shift(NamedTuple):
    """The decision at one shift g.  mu is a corrector from D^g to D', or None;
    sigma pairs target positions with source positions blockwise by left coset
    of the support, or is None when mu is None or the coset multisets differ.
    sigma depends on g only through the left coset g^-1 H: those shifts share it."""

    g: int
    mu: Corrector | None
    sigma: tuple[int, ...] | None


def _shift_correctors(d: GradedDivisionAlgebra, d2: GradedDivisionAlgebra, shifts=None):
    """Yield (g, mu) per shift g, over shifts or all of G ascending: mu is a
    corrector from D^g to D', or None when D^g and D' are not isomorphic.

    The division question is solved once per distinct conjugation map
    h -> g^-1 h g on the support, which is exact: that map alone fixes D^g
    (its support and its transported cocycle), so shifts sharing it pose the
    same system and get the same answer.  Where the map is the identity (g
    centralizes H), D^g is D, so D itself is compared: no support is built
    and no cocycle transported.  When H is central, as it always is over an
    abelian group and for a trivial support, every map is the identity and
    none is computed.
    """
    grp = d.group
    sup = d.support
    members = sup.members
    solved: dict[tuple[int, ...], Corrector | None] = {}
    for g in grp.elements() if shifts is None else shifts:
        key = members if sup.central else tuple(grp.conj(h, g) for h in members)
        if key not in solved:
            shifted = d if key == members else shift_conjugate(d, g)
            solved[key] = iso_division(shifted, d2)
        yield g, solved[key]


def _shift_outcomes(p: FlagPresentation, p2: FlagPresentation, shifts=None):
    """Yield one _Shift per shift g, failures included: over shifts, or, when
    shifts is None, over the shifts every block admits, ascending.

    Block b admits g when its least source class c (the least coset
    representative of its source degrees) is met by a target degree d' of b
    shifted by g^-1: d' g^-1 in cH, that is rep[g^-1] = rep[d'^-1 c].  A
    pairing needs every class met, so a shift some block does not admit has
    sigma None whatever its corrector, and is not yielded.  One key set per
    block is built and the sets intersected; the admitted shifts are the
    inverses of kH for each key k left, listed in |keys| * |H| <= |G| steps.

    The division decision is _shift_correctors'.  Where a corrector is found,
    source degrees and target degrees shifted by g^-1 are paired blockwise by
    coset representative, ascending target positions with ascending source
    positions within a class.  The pairing is made once per left coset g^-1 H,
    keyed by its least element: for g'^-1 = g^-1 h, d g'^-1 lies in d g^-1 H
    for every target degree d, so both shifts pose the same target cosets.
    """
    grp = p.group
    tbl = grp.table
    sup = p.division.support
    rep = sup.coset_rep
    src = [rep[d] for d in p.degrees]
    blocks = []  # per block, sorted once: its positions, source positions by class, classes
    for block in p.shape.block_positions():
        src_ids = sorted(block, key=src.__getitem__)
        blocks.append((block, src_ids, [src[i] for i in src_ids]))
    if shifts is None:
        inv = grp.inv
        keys = set.intersection(*(
            {rep[tbl[inv(p2.degrees[i])][classes[0]]] for i in block}
            for block, _, classes in blocks
        ))
        # g^-1 in kH iff g in H k^-1
        shifts = sorted([tbl[h][k] for k in map(inv, keys) for h in sup.members])
    rows = [tbl[d] for d in p2.degrees]  # row[x] is d * x
    paired = [False] * grp.size  # by key rep[g^-1]: sigma, None, or False before pairing
    for g, mu in _shift_correctors(p.division, p2.division, shifts):
        if mu is None:
            yield _Shift(g, None, None)
            continue
        key = rep[grp.inv(g)]
        sigma = paired[key]
        if sigma is False:
            tgt = [rep[row[key]] for row in rows]
            sigma = [0] * len(src)
            for block, src_ids, classes in blocks:
                tgt_ids = sorted(block, key=tgt.__getitem__)  # stable: ascending within a class
                if classes != [tgt[i] for i in tgt_ids]:
                    sigma = None
                    break
                for t_i, s_i in zip(tgt_ids, src_ids):
                    sigma[t_i] = s_i
            else:
                sigma = tuple(sigma)
            paired[key] = sigma
        yield _Shift(g, mu, sigma)


def _certified(p: FlagPresentation, p2: FlagPresentation, found: _Shift) -> Verdict:
    """The ISOMORPHIC verdict at a shift whose record has sigma set, decided on
    the search's data in O(n), with no map built.

    By the paper's description of a graded isomorphism, a shift g, a
    block-preserving sigma, correctors h in H and a corrector mu from D^g to
    D' give one.  The search makes each by construction: sigma pairs
    positions within blocks by coset, so the correctors _witness solves lie
    in H, and mu is 0 on identical cocycles or passed the corrector law
    inside cohomologous.  So D is not transported nor mu re-checked here;
    sigma is checked to be a block-preserving permutation and each h to lie
    in H (_data_failure, the rule caller data is checked by), and a failure
    raises.  The map is built, and checked by _map_report, when it is
    first read.
    """
    g, mu, sigma = found
    sup = p.division.support.index
    failure = _data_failure(p.shape, sup, sigma)  # first: the correctors are solved from sigma
    if failure is None:
        w = _witness(p, p2, g, sigma, mu)
        failure = _data_failure(p.shape, sup, correctors=w.correctors)
    if failure is not None:
        raise AssertionError(
            f"engine produced witness data outside the paper's description: {failure}"
        )
    return Verdict(ISOMORPHIC, witness=w)


def iso_pairs(p: FlagPresentation, p2: FlagPresentation) -> Verdict:
    """Isomorphism of pairs (D, V): no shift, full-tuple coset matching.

    The block structure of the inputs is disregarded; the emitted witness is
    built on single-block copies of the presentations.
    """
    if p.group != p2.group:
        raise GroupMismatch("pairs are graded by different groups")
    n, n2 = len(p.degrees), len(p2.degrees)
    if n != n2:
        return Verdict(
            NOT_ISOMORPHIC,
            certificate=InvariantMismatch(f"module ranks differ: {n} vs {n2}"),
        )
    flat = make_presentation(p.division, (n,), p.degrees)
    flat2 = make_presentation(p2.division, (n,), p2.degrees)
    found = next(_shift_outcomes(flat, flat2, (p.group.identity,)))
    if found.mu is None:
        detail = "pair isomorphism admits no shift; division parts are not isomorphic"
    elif found.sigma is None:
        detail = "full-tuple left-coset multisets differ"
    else:
        return _certified(flat, flat2, found)
    return Verdict(NOT_ISOMORPHIC, certificate=SearchExhausted(shifts_tried=1, detail=detail))


def iso_algebras(p: FlagPresentation, p2: FlagPresentation) -> Verdict:
    """Graded isomorphism decision for flag algebras over a common group.

    Searches the shifts g every block admits (_shift_outcomes), in ascending
    element order; for each, requires the shifted division part to be
    isomorphic to the target's and the blockwise left-coset multisets to
    match.  The first success is the answer, its witness decided on the
    search's data (_certified), its map built and checked on first read.
    Exhaustion yields a certificate over all of G, each shift decided by its
    record or by the block test, with a separating invariant attached when
    one exists.
    """
    if p.group != p2.group:
        raise GroupMismatch("presentations are graded by different groups")
    if p.shape != p2.shape:
        return Verdict(
            NOT_ISOMORPHIC,
            certificate=InvariantMismatch(
                f"block shapes differ: {p.shape.blocks} vs {p2.shape.blocks}"
            ),
        )
    for found in _shift_outcomes(p, p2):
        if found.sigma is not None:
            return _certified(p, p2, found)

    tried = p.group.size  # the admitted shifts by their records, the rest by the block test
    sup, sup2 = p.division.support, p2.division.support
    shared = sup.central and sup == sup2
    levels = zip(_coset_profiles(p, shared), _coset_profiles(p2, shared))
    mismatch = None
    for c, (dims1, dims2) in enumerate(levels):
        if dims1 != dims2:
            mismatch = InvariantMismatch(_separate(p.group, c, dims1, dims2))
            break
    return Verdict(
        NOT_ISOMORPHIC,
        certificate=SearchExhausted(
            shifts_tried=tried,
            detail=(
                f"searched all {tried} shifts with blockwise coset matching "
                f"over a support of size {len(p.division.support.members)}"
            ),
            invariant_mismatch=mismatch,
        ),
    )


def _separate(grp: Group, c: int, dims1: dict[int, int], dims2: dict[int, int]) -> str:
    """Name what separates two profiles of J^c that differ: for the algebra
    itself (c = 0), the least degree whose dimension differs."""
    if c:
        return f"radical power {c} dimension profile differs"
    u = min(u for u in dims1.keys() | dims2.keys() if dims1.get(u, 0) != dims2.get(u, 0))
    return f"dim at degree {grp.name_of(u)}: {dims1.get(u, 0)} vs {dims2.get(u, 0)}"


# -- equivalence ---------------------------------------------------------------


@dataclass
class EquivWitness:
    """Degree relabeling data: lam on tuple values, sigma[source pos] = target pos."""

    source: FlagPresentation
    target: FlagPresentation
    lam: dict[int, int]
    sigma: tuple[int, ...]
    component_map: dict[int, int]


def equiv_check(p: FlagPresentation, p2: FlagPresentation) -> Verdict:
    """Necessary conditions for graded equivalence; never answers Equivalent.

    Checks block shapes, division-part equivalence, and the existence of a
    bijection between blockwise coset-class profiles.  All conditions passing
    is Inconclusive by design: for nontrivial division parts the criterion is
    one-directional.
    """
    if p.shape != p2.shape:
        return Verdict(
            NOT_EQUIVALENT,
            reason=f"block shapes differ: {p.shape.blocks} vs {p2.shape.blocks}",
        )
    if equiv_division(p.division, p2.division) is None:
        return Verdict(NOT_EQUIVALENT, reason="division parts are not equivalent")
    prof1 = _class_profiles(p)
    prof2 = _class_profiles(p2)
    if sorted(prof1.values()) != sorted(prof2.values()):
        return Verdict(
            NOT_EQUIVALENT,
            reason=(
                "blockwise coset-class profiles do not match: "
                f"{sorted(prof1.values())} vs {sorted(prof2.values())}"
            ),
        )
    return Verdict(
        INCONCLUSIVE,
        reason="all necessary conditions hold; the criterion is not decisive here",
    )


def _class_profiles(p: FlagPresentation) -> dict[int, tuple[int, ...]]:
    """Per distinct left coset of the support, its count in each block."""
    rep = p.division.support.coset_rep
    reps = [rep[d] for d in p.degrees]
    blocks = p.shape.block_positions()
    out: dict[int, tuple[int, ...]] = {}
    for r in sorted(set(reps)):
        out[r] = tuple(sum(1 for i in blk if reps[i] == r) for blk in blocks)
    return out


def equiv_elementary(p: FlagPresentation, p2: FlagPresentation) -> Verdict:
    """Full equivalence decision for elementary gradings (trivial division parts).

    Searches bijections lam between the degree-value sets that preserve
    blockwise multiplicity vectors, subject to the two-sided coincidence rule:
    over in-algebra positions (row block <= column block), a b^-1 ->
    lam(a) lam(b)^-1 must be a function in both directions.  Every complete
    assignment then maps components onto components, so the first one found
    is the witness, with that function as its component map; it is verified
    once before being returned.
    """
    if not p.division.is_trivial() or not p2.division.is_trivial():
        raise UnsupportedInput("equivalence decision requires trivial division parts")
    if p.shape != p2.shape:
        return Verdict(
            NOT_EQUIVALENT,
            reason=f"block shapes differ: {p.shape.blocks} vs {p2.shape.blocks}",
        )
    g1, g2 = p.group, p2.group
    n = p.shape.n
    blocks = p.shape.block_positions()
    # with a trivial support every degree value is its own coset class, so the
    # profiles are the blockwise multiplicity vectors of the degree values
    cv1 = _class_profiles(p)
    cv2 = _class_profiles(p2)
    vals1, vals2 = list(cv1), list(cv2)  # ascending
    if len(vals1) != len(vals2):
        return Verdict(
            NOT_EQUIVALENT,
            reason=f"degree value sets have different sizes: {len(vals1)} vs {len(vals2)}",
        )
    if sorted(cv1.values()) != sorted(cv2.values()):
        return Verdict(
            NOT_EQUIVALENT,
            reason="blockwise multiplicity profiles of the degree values differ",
        )

    pairs = sorted({(p.degrees[i], p.degrees[j]) for i, j, _ in p.shape.cells()})

    def components(lam: dict[int, int]) -> dict[int, int] | None:
        """u -> w over the assigned pairs, or None unless it is a bijection."""
        fwd: dict[int, int] = {}
        back: dict[int, int] = {}
        for a, b in pairs:
            if a in lam and b in lam:
                u = g1.mul(a, g1.inv(b))
                w = g2.mul(lam[a], g2.inv(lam[b]))
                if fwd.setdefault(u, w) != w or back.setdefault(w, u) != u:
                    return None
        return fwd

    lam: dict[int, int] = {}
    branches = 0

    def extend(pos: int) -> bool:
        nonlocal branches
        if pos == len(vals1):
            return True
        v = vals1[pos]
        for w in vals2:
            if w in lam.values() or cv2[w] != cv1[v]:
                continue
            branches += 1
            lam[v] = w
            if components(lam) is not None and extend(pos + 1):
                return True
            del lam[v]
        return False

    if not extend(0):
        return Verdict(
            NOT_EQUIVALENT,
            reason=(
                "no degree bijection satisfies the coincidence condition "
                f"(searched {branches} assignments)"
            ),
        )
    sigma = [0] * n
    for blk in blocks:  # as the shift search pairs: stable sorts, ascending within a degree
        src_ids = sorted(blk, key=lambda i: lam[p.degrees[i]])
        for i, j in zip(src_ids, sorted(blk, key=p2.degrees.__getitem__)):
            sigma[i] = j
    witness = EquivWitness(p, p2, lam, tuple(sigma), components(lam))
    report = _equiv_report(p, p2, witness)
    if not report.ok:
        raise AssertionError(
            f"engine produced an equivalence witness failing verification: {report.failures[:3]}"
        )
    return Verdict(EQUIVALENT, equiv_witness=witness)


def verify_equiv_witness(
    alg: GradedAlgebra, alg2: GradedAlgebra, ew: EquivWitness
) -> WitnessReport:
    """Check that e_ij -> e'_{sigma(i) sigma(j)} maps components onto components
    (_equiv_report, on the presentations of alg and alg2, not their degrees)."""
    return _equiv_report(alg.presentation, alg2.presentation, ew)


def _equiv_report(p: FlagPresentation, p2: FlagPresentation, ew: EquivWitness) -> WitnessReport:
    """For sigma a permutation of the source's positions and a trivial source support, e_ij
    has degree g_i g_j^-1, and its image is in the target iff (sigma i, sigma j) is a target
    cell, of degree g'_{sigma i} g'_{sigma j}^-1.  Each split component is named once.  Last,
    once all else holds, the relabeling must agree with sigma: lam(g_i) = g'_{sigma i} at
    every position i, and the first position where it fails is named."""
    sigma, shape = ew.sigma, p.shape
    if any(type(k) is not int for k in sigma) or sorted(sigma) != list(range(shape.n)):
        return WitnessReport(False, 0, ("sigma is not a permutation",))
    if len(basis_of(p)) != len(basis_of(p2)):
        return WitnessReport(False, 0, ("algebras have different dimensions",))
    if not p.division.is_trivial():
        return WitnessReport(False, 0, ("nontrivial division part in equivalence check",))
    grp, grp2, cells2 = p.group, p2.group, p2.shape.cell_number
    failures: list[str] = []
    img_degree: dict[int, int] = {}
    checked = 0
    for i, j, _ in shape.cells():
        if (sigma[i], sigma[j]) not in cells2:
            failures.append(f"image of e_{i + 1}{j + 1} leaves the algebra")
            continue
        checked += 1
        u = grp.mul(p.degrees[i], grp.inv(p.degrees[j]))
        w = grp2.mul(p2.degrees[sigma[i]], grp2.inv(p2.degrees[sigma[j]]))
        if img_degree.setdefault(u, w) != w:
            failures.append(f"component at degree {grp.name_of(u)} is split across target degrees")
    if failures:
        return WitnessReport(False, checked, tuple(dict.fromkeys(failures)))
    if len(set(img_degree.values())) != len(img_degree):
        failures.append("two components merge into one target degree")
    dims1, dims2 = next(_coset_profiles(p, False)), next(_coset_profiles(p2, False))
    for u, w in img_degree.items():
        if dims1[u] != dims2[w]:
            failures.append(
                f"component dimensions differ: {dims1[u]} at {grp.name_of(u)} "
                f"vs {dims2[w]} at {grp2.name_of(w)}"
            )
    for u, cm in ew.component_map.items():
        if img_degree.get(u) != cm:
            failures.append("stated component map disagrees with the induced map")
            break
    if not failures:
        for i, (g, k) in enumerate(zip(p.degrees, sigma)):
            if ew.lam.get(g) != p2.degrees[k]:
                failures.append(
                    f"lam does not send {grp.name_of(g)} to {grp2.name_of(p2.degrees[k])} "
                    f"at position {i + 1}"
                )
                break
    return WitnessReport(not failures, checked, tuple(failures))


# -- classification ------------------------------------------------------------


@dataclass
class Classification:
    """Orbit representatives of the degree tuples, with their orbit sizes.

    ``shifts`` are the admissible shifts the canonical forms were taken over.
    The two flags record which cross-checks enumerate_classes ran; classify
    runs none.
    """

    group: Group
    shape: BlockShape
    division: GradedDivisionAlgebra
    representatives: tuple[tuple[int, ...], ...]
    orbit_sizes: tuple[int, ...]
    total: int
    shifts: tuple[int, ...]
    pairwise_checked: bool = False
    membership_checked: bool = False

    @property
    def count(self) -> int:
        return len(self.representatives)

    def rows(self) -> list[tuple[tuple[str, ...], int]]:
        """(representative as element names, orbit size), one row per class."""
        return [
            (tuple(self.group.name_of(x) for x in rep), size)
            for rep, size in zip(self.representatives, self.orbit_sizes)
        ]


@lru_cache(maxsize=64)
def _coset_action(division: GradedDivisionAlgebra):
    """The admissible shifts and their action xH -> xgH on the left cosets of the support H.

    Returns the shifts g with D^g isomorphic to D, ascending, read off the
    division decisions alone (all of G when H is central; in general a subset
    of N_G(H), all of it when the cocycle is trivial); the least element of
    each left coset, ascending; the index of xH among them, for every x in G;
    and the distinct permutations of the coset indices, sorted.
    """
    grp = division.group
    shifts = tuple(g for g, mu in _shift_correctors(division, division) if mu is not None)
    rep = division.support.coset_rep
    cosets = tuple(sorted(set(rep)))
    at = {r: i for i, r in enumerate(cosets)}
    index = tuple(at[r] for r in rep)
    perms = tuple(sorted({tuple(index[grp.mul(r, g)] for r in cosets) for g in shifts}))
    return shifts, cosets, index, perms


def canonical_form(p: FlagPresentation) -> tuple[int, ...]:
    """Lexicographically minimal tuple over shift, block permutation, coset correction.

    An admissible shift g normalizes H, so the coset representative of d*g
    depends on dH alone: the least blockwise-sorted tuple of coset indices is
    taken over the distinct coset permutations and mapped back to representatives.
    """
    _, cosets, index, perms = _coset_action(p.division)
    at, blocks = [index[d] for d in p.degrees], p.shape.block_positions()
    least = min(tuple(x for b in blocks for x in sorted(perm[at[i]] for i in b)) for perm in perms)
    return tuple(map(cosets.__getitem__, least))


def classify(
    group: Group,
    blocks,
    division: GradedDivisionAlgebra,
    budget: int | None = None,
) -> Classification:
    """Orbit representatives of all |G|^n degree tuples, by coset configuration.

    A tuple's class depends only on its configuration: per block, the
    multiset of left cosets xH of its degrees (H the division support), up to
    the admissible shifts g, which act on the cosets by xH -> xgH (they
    normalize H, since D^g and D share a support).  The configurations are
    walked once, in the lexicographic order of their blockwise-sorted coset
    representatives, and each shift orbit is taken at its first member met,
    which is its least, the canonical form of its tuples.  The orbit's tuples
    are counted, not visited: |orbit| * prod_b multinomial(m_b; coset counts)
    * |H|^n.  The budget still bounds |G|^n, counted as 2^n for a one-element
    group, whose lone tuple still realizes an algebra of dimension n(n+1)/2
    in enumerate_classes' membership cross-check.
    """
    if division.group != group:
        raise GroupMismatch("division part lives over a different group")
    shape = blocks if isinstance(blocks, BlockShape) else BlockShape(tuple(blocks))
    n = shape.n
    limit = classify_budget(budget)
    base = max(group.size, 2)
    note = "" if group.size > 1 else " (a one-element group is budgeted as order 2)"
    # base^n >= 2^(n*(b-1)) for b the bit length of base: past the budget's
    # bit length, and past 64 bits, the count is refused without being built
    # or printed (3^10000 has too many digits to print); below, a built count
    # has fewer than twice as many bits
    if n * (base.bit_length() - 1) >= max(64, limit.bit_length()):
        power = f"{base}^{n}" if n.bit_length() <= 64 else f"{base}^n, n of more than 64 bits,"
        raise BudgetExceeded(f"enumeration of {power} tuples exceeds budget {limit}{note}")
    if base**n > limit:
        raise BudgetExceeded(
            f"enumeration of {base}^{n} = {base**n} tuples exceeds budget {limit}{note}"
        )
    # the distinct actions of the admissible shifts on the coset indices form a
    # group, so an orbit is the set of images of any one of its members
    shifts, cosets, _, perms = _coset_action(division)
    # per distinct block size m, once: the sorted size-m multisets of coset
    # indices and, per multiset, the indices of its images under the perms,
    # its coset representatives and its multinomial weight; equal-size blocks
    # share them
    by_size = {}
    for m in set(shape.blocks):
        ms = list(itertools.combinations_with_replacement(range(len(cosets)), m))
        at = {cs: i for i, cs in enumerate(ms)}
        by_size[m] = (
            ms,
            [tuple(at[tuple(sorted(map(p.__getitem__, cs)))] for p in perms) for cs in ms],
            [tuple(map(cosets.__getitem__, cs)) for cs in ms],
            list(map(_multinomial, ms)),
        )
    multisets, images, coset_reps, weights = zip(*map(by_size.__getitem__, shape.blocks))
    # a configuration is one multiset index per block, numbered in mixed
    # radix with the first block most significant, so numbers ascend with the
    # flattened configurations; moves[b][i][k] is what block b adds to the
    # number of the image under the k-th perm when it holds multiset i: the
    # image's index times the block's stride
    strides = [prod(map(len, multisets[b + 1 :])) for b in range(len(multisets))]
    moves = []
    for rows, stride in zip(images, strides):
        if stride > 1:  # one int object per scaled index, shared by every perm
            scaled = list(range(0, stride * len(rows), stride))
            rows = [tuple(map(scaled.__getitem__, row)) for row in rows]
        moves.append(rows)
    per_tuple = len(division.support.members) ** n
    seen = bytearray(prod(map(len, multisets)))
    reps: list[tuple[int, ...]] = []
    sizes: list[int] = []
    for number, config in enumerate(itertools.product(*(range(len(ms)) for ms in multisets))):
        if seen[number]:
            continue
        orbit = set(map(sum, zip(*map(list.__getitem__, moves, config))))
        for member in orbit:
            seen[member] = 1
        reps.append(sum(map(list.__getitem__, coset_reps, config), ()))
        sizes.append(len(orbit) * per_tuple * prod(map(list.__getitem__, weights, config)))
    return Classification(group, shape, division, tuple(reps), tuple(sizes), group.size**n, shifts)


def _multinomial(multiset: tuple[int, ...]) -> int:
    """The number of orderings of a sorted multiset."""
    count = factorial(len(multiset))
    for _, run in itertools.groupby(multiset):
        count //= factorial(len(list(run)))
    return count
