"""Explicit graded algebras: basis, degree map, sparse structure constants.

The algebra of a presentation (D, m, g) has basis (i, j, h) for admissible
block positions i <= j (blockwise) and h in supp D, with

    deg(i,j,h) = g_i * h * g_j^-1
    (i,j,h)*(k,l,h') = 0 if j != k, else sigma(h,h') * (i,l,h*h')

Every product of basis elements is zero or a root of unity times a basis
element, so the whole algebra is a finite exact object.  BlockShape.cells is
the one description of where a basis element sits.  The degree array is
computed in one place, _degrees, over those cells, by basis position: realize
stores it for check_grading, and no witness check reads it.  The graded
invariants are read off the presentation's cosets, in one place,
_coset_profiles, which counts cells, not degrees: invariants, every NO
certificate (on its invariant's first read) and the equivalence check read
them there.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .groups import Group, Subgroup
from .presentations import BlockShape, FlagPresentation

__all__ = [
    "BasisElem",
    "GradedAlgebra",
    "GradingReport",
    "GradedInvariants",
    "realize",
    "check_grading",
    "invariants",
]


class BasisElem(NamedTuple):
    row: int  # 0-based
    col: int  # 0-based
    sup: int  # support element, as a parent-group element index


@dataclass
class GradedAlgebra:
    """A realized presentation; treat as immutable after construction.

    ``basis`` and ``index`` depend only on the block shape and the division
    support, and every algebra with the same shape and support shares one
    copy of them, so ``index`` must never be written to.
    """

    presentation: FlagPresentation
    basis: tuple[BasisElem, ...]
    degree: tuple[int, ...]  # by basis position
    index: dict[BasisElem, int]

    @property
    def group(self) -> Group:
        return self.presentation.group

    @property
    def order(self) -> int:
        return self.presentation.division.order

    @property
    def dim(self) -> int:
        return len(self.basis)

    def generators(self) -> list[int]:
        """Basis positions of a generating set S of the algebra, ascending.

        S is (i,i+1,e) for consecutive positions, (i+1,i,e) within a block,
        (f,f,x) for the first position f of each block and x in a generating
        set of the support H, and, when H = 1 only, (f,f,e) for a singleton
        block f.  Every basis element is a product of elements of S, up to a
        root of unity (the cocycle is normalized, so products with e carry
        none): (i,i+1,e)(i+1,i,e) = (i,i,e) and (i+1,i,e)(i,i+1,e) =
        (i+1,i+1,e) reach the units of the blocks of size >= 2; a singleton
        block's unit (f,f,e) is (f,f,x)^ord(x) up to a root of unity when
        H != 1, and a generator when H = 1; chains of (i,i+1,e), or of
        (i+1,i,e) within a block, reach (i,j,e) for every cell with i != j;
        words in the (f,f,x) reach (f,f,h) for every h in the finite group H;
        and (i,j,h) = (i,f,e)(f,f,h)(f,j,e) with f the first position of i's
        block.
        """
        return list(_layout(self.presentation.shape, self.presentation.division.support).generators)

    def generator_products(self) -> tuple[tuple[int, ...], ...]:
        """The nonzero products s*b of a generator s and a basis element b, as
        five arrays: s, b, their support positions x and y, and s*b (of scalar
        exponent sigma(x, y)), shared by every algebra of this shape and support."""
        return _layout(self.presentation.shape, self.presentation.division.support).walk

    def nonzero_products(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield (p1, p2, scalar exponent, position) for each nonzero basis
        product, ascending in p1 and then in p2: the walk check_grading reruns
        to name every violation once a generator product fails."""
        p = self.presentation
        walk = _products(p.shape, p.division.support, range(self.dim))
        vals = p.division.cocycle.values
        return ((p1, p2, vals[x][y], pos) for p1, p2, x, y, pos in walk)


def _products(shape: BlockShape, support: Subgroup, lefts: Iterable[int]):
    """Yield (p1, p2, x, y, position) for each nonzero basis product whose
    left factor p1 is in lefts, ascending basis positions, with x and y the
    support positions of the factors, ascending in p1 and then in p2.

    (i,j,h_x)*(j,l,h_y) = sigma(h_x,h_y) (i,l,h_x h_y), and each cell (i,j)
    holds one copy of the support at a base offset, so the walk runs over
    cells i <= j <= l with one product table over support positions.
    """
    k = len(support.members)
    prod = support.mul_table
    cells = shape.cells()
    number = shape.cell_number
    by_row: dict[int, list[tuple[int, int]]] = {}  # row -> (column, offset), ascending
    for c, (i, j, _) in enumerate(cells):
        by_row.setdefault(i, []).append((j, c * k))
    by_cell: dict[int, list[int]] = {}  # cell -> support positions of its left factors
    for p1 in lefts:
        by_cell.setdefault(p1 // k, []).append(p1 % k)
    for c, xs in by_cell.items():
        i, j, _ = cells[c]
        off1 = c * k
        right = [(off2, number[i, l] * k) for l, off2 in by_row[j]]
        for x in xs:
            p1, px = off1 + x, prod[x]
            for off2, off3 in right:
                for y in range(k):
                    yield p1, off2 + y, x, y, off3 + px[y]


def basis_of(p: FlagPresentation) -> tuple[BasisElem, ...]:
    """The basis of p's algebra, in the order every realization and witness uses.

    Ordered by (row block, column block, row, column, support position): cell
    number c of the shape holds its support position x at c * |H| + x.
    """
    return _layout(p.shape, p.division.support).basis


class _Layout(NamedTuple):
    """What every algebra of one shape over one support shares.  By basis
    position: the basis and the cell position row * n + column.  Also the
    index of the basis, the position of each unit (k, k, e), by k, and
    GradedAlgebra.generators and its generator_products."""

    basis: tuple[BasisElem, ...]
    index: dict[BasisElem, int]
    at: tuple[int, ...]
    units: tuple[int, ...]
    generators: tuple[int, ...]
    walk: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=64)
def _layout(shape: BlockShape, support: Subgroup) -> _Layout:
    """The layout of every algebra of this shape over this support.  It does
    not depend on the degree tuple, so it is built once and shared: the index
    must never be written to."""
    n, k, cells, members = shape.n, len(support.members), shape.cells(), support.members
    basis = tuple(BasisElem(i, j, h) for i, j, _ in cells for h in members)
    at = tuple(i * n + j for i, j, _ in cells for _ in range(k))
    e = support.index[support.group.identity]
    number = shape.cell_number
    units = tuple(number[i, i] * k + e for i in range(n))
    index = {b: p for p, b in enumerate(basis)}
    # GradedAlgebra.generators: the cells whose (i,j,e) is a generator, then
    # the (f,f,x) of each block's first position f; a singleton block's unit
    # is a power of its (f,f,x) unless H = 1
    blocks = shape.block_positions()
    heads = [number[b.start, b.start] for b in blocks]
    xs = [support.index[x] for x in support.generators]
    e_cells = [] if xs else [c for b, c in zip(blocks, heads) if len(b) == 1]
    starts = {b.start for b in blocks}
    for i in range(n - 1):
        e_cells.append(number[i, i + 1])
        if i + 1 not in starts:
            e_cells.append(number[i + 1, i])
    gens = tuple(sorted([c * k + e for c in e_cells] + [c * k + x for c in heads for x in xs]))
    walk = tuple(zip(*_products(shape, support, gens)))
    return _Layout(basis, index, at, units, gens, walk)


def _degrees(p: FlagPresentation) -> tuple[int, ...]:
    """The degree g_i h g_j^-1 of each basis position (i, j, h) of p's algebra,
    over the cells of its shape and the members of its support, in basis
    order: the one place the degrees are computed."""
    grp = p.group
    tbl = grp.table
    rows = [tbl[g] for g in p.degrees]
    inv = [grp.inv(g) for g in p.degrees]
    members = p.division.support.members
    return tuple([tbl[rows[i][h]][inv[j]] for i, j, _ in p.shape.cells() for h in members])


def realize(p: FlagPresentation) -> GradedAlgebra:
    """Build the graded algebra of p: the shared basis and index of its shape
    and support, and its degrees.

    Construction only; check_grading is the separate check of the grading law.
    """
    layout = _layout(p.shape, p.division.support)
    return GradedAlgebra(p, layout.basis, _degrees(p), layout.index)


@dataclass(frozen=True)
class GradingReport:
    ok: bool
    checked_products: int
    violations: tuple[str, ...]


def check_grading(alg: GradedAlgebra) -> GradingReport:
    """Verify deg(b1*b2) = deg(b1)*deg(b2) for every nonzero basis product.

    The law is checked on the products s*b with s in the generating set S of
    GradedAlgebra.generators.  The x with deg(x*y) = deg(x)*deg(y) for every
    y form a set closed under products: for s and w in it and every y with
    s*w*y nonzero, deg(s*w*y) = deg(s)*deg(w*y) = deg(s)*deg(w)*deg(y) =
    deg(s*w)*deg(y).  It holds S, so it holds every basis element, each a
    product of elements of S up to a root of unity.  The products s*b are
    read from GradedAlgebra.generator_products, built once per shape and
    support with its layout.  When some s*b fails, the walk reruns over every
    nonzero product, so the report names each violation.  checked_products
    counts every nonzero product either way: cell (i,j) times each cell of
    row j, |H|^2 products per pair of cells.
    """
    grp = alg.group
    shape = alg.presentation.shape
    k = len(alg.presentation.division.support.members)
    row_cells = Counter(i for i, _, _ in shape.cells())
    checked = k * k * sum(row_cells[j] for _, j, _ in shape.cells())
    deg, tbl = alg.degree, grp.table
    lefts, rights, _, _, products = alg.generator_products()
    for p1, p2, pos in zip(lefts, rights, products):
        if deg[pos] != tbl[deg[p1]][deg[p2]]:
            break
    else:
        return GradingReport(True, checked, ())
    bad = [
        f"deg({tuple(alg.basis[p1])} * {tuple(alg.basis[p2])}) = "
        f"{grp.name_of(deg[pos])}, expected {grp.name_of(tbl[deg[p1]][deg[p2]])}"
        for p1, p2, _, pos in alg.nonzero_products()
        if deg[pos] != tbl[deg[p1]][deg[p2]]
    ]
    return GradingReport(not bad, checked, tuple(bad))


@dataclass(frozen=True)
class GradedInvariants:
    """Isomorphism invariants: dimensions by degree, plus the radical filtration.

    J^c is the span of basis elements whose column block exceeds the row block
    by at least c; for these algebras that is the c-th power of the Jacobson
    radical, computed combinatorially.
    """

    total_dim: int
    dims: tuple[tuple[int, int], ...]  # (degree element, dim), nonzero only
    radical_dims: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]  # (c, dims of J^c)


def invariants(alg: GradedAlgebra) -> GradedInvariants:
    """The invariants of alg, read off its presentation's cosets: an algebra's
    invariants are its presentation's, whatever degrees it carries."""
    dims, *radical = (tuple(sorted(d.items())) for d in _coset_profiles(alg.presentation, False))
    return GradedInvariants(alg.dim, dims, tuple(enumerate(radical, 1)))


def _coset_profiles(p: FlagPresentation, reps_only: bool) -> Iterator[dict[int, int]]:
    """Yield the dimensions by degree of J^0 (the algebra), J^1, ..., J^(s-1)
    of p's algebra, read off its cosets without computing its degrees.  J^0 is
    counted over every cell; the radical powers only when asked for, together,
    from the deepest block gap down.

    Cell (i, j) holds the |H| distinct degrees g_i H g_j^-1, fixed by the left
    cosets g_i H and g_j H: the cells are keyed by (rep[g_i], rep[g_j]), and
    each count expands each distinct key through H once.  With reps_only, H
    must be central: the set is then the coset g_i g_j^-1 H, each cell is
    counted once under its least element, and nothing is expanded.  Every
    degree of a coset has its representative's dimension, so over one central
    support these profiles agree exactly when the full ones do, and the least
    degree whose dimension differs is a representative.  Over H = 1 each
    coset is one degree, so the reps_only profiles are the full ones, and
    they are the ones read whatever reps_only asks for.
    """
    grp, sup, shape = p.group, p.division.support, p.shape
    tbl, rep, degrees, cells = grp.table, sup.coset_rep, p.degrees, shape.cells()
    if reps_only or len(sup.members) == 1:
        rows = [tbl[g] for g in degrees]
        inv = [grp.inv(g) for g in degrees]
        keys = [rep[rows[i][inv[j]]] for i, j, _ in cells]

        def spread(keys):
            return keys

    else:
        cosets = [rep[g] for g in degrees]
        keys = [(cosets[i], cosets[j]) for i, j, _ in cells]

        def spread(keys):
            """The degrees of the cells of these keys, with multiplicity."""
            out: list[int] = []
            for (x, y), m in Counter(keys).items():
                row, y_inv = tbl[x], grp.inv(y)
                out += [tbl[row[h]][y_inv] for h in sup.members] * m
            return out

    yield dict(Counter(spread(keys)))
    by_gap: list[list] = [[] for _ in range(shape.s)]
    for key, (_, _, gap) in zip(keys, cells):
        by_gap[gap].append(key)
    acc: Counter[int] = Counter()
    levels = []
    for c in reversed(range(1, shape.s)):
        acc.update(spread(by_gap[c]))
        levels.append(dict(acc))
    yield from reversed(levels)

