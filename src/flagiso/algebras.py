"""Explicit graded algebras: basis, degree map, sparse structure constants.

The algebra of a presentation (D, m, g) has basis (i, j, h) for admissible
block positions i <= j (blockwise) and h in supp D, with

    deg(i,j,h) = g_i * h * g_j^-1
    (i,j,h)*(k,l,h') = 0 if j != k, else sigma(h,h') * (i,l,h*h')

Every product of basis elements is zero or a root of unity times a basis
element, so the whole algebra is a finite exact object.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
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
        (i,i,e) for a singleton block, and (f,f,x) for the first position f of
        each block and x in a generating set of the support H.  Every basis
        element is a product of elements of S, up to a root of unity (the
        cocycle is normalized, so products with e carry none):
        (i,i+1,e)(i+1,i,e) = (i,i,e) and (i+1,i,e)(i,i+1,e) = (i+1,i+1,e)
        reach the units of the blocks of size >= 2; chains of (i,i+1,e), or of
        (i+1,i,e) within a block, reach (i,j,e) for every cell with i != j;
        words in the (f,f,x) reach (f,f,h) for every h in the finite group H;
        and (i,j,h) = (i,f,e)(f,f,h)(f,j,e) with f the first position of i's
        block.
        """
        return _generators(self.presentation.shape, self.presentation.division.support)

    def generator_products(self) -> tuple[tuple[int, ...], ...]:
        """The nonzero products s*b of a generator s and a basis element b, as
        five arrays: s, b, their support positions x and y, and s*b (of scalar
        exponent sigma(x, y)), shared by every algebra of this shape and support."""
        return _generator_walk(self.presentation.shape, self.presentation.division.support)

    def nonzero_products(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield (p1, p2, scalar exponent, position) for each nonzero basis
        product, ascending in p1 and then in p2: the walk a failed check reruns
        to name every failing product."""
        vals = self.presentation.division.cocycle.values
        walk = _products(self.presentation.shape, self.presentation.division.support)
        return ((p1, p2, vals[x][y], pos) for p1, p2, x, y, pos in walk)


def _generators(shape: BlockShape, support: Subgroup) -> list[int]:
    k = len(support.members)
    e = support.index[support.group.identity]
    units, heads = shape.generator_cells()
    xs = [support.index[x] for x in support.generators]
    return sorted([c * k + e for c in units] + [c * k + x for c in heads for x in xs])


def _products(shape: BlockShape, support: Subgroup, lefts: Iterable[int] | None = None):
    """Yield (p1, p2, x, y, position) for each nonzero basis product, with x
    and y the support positions of the factors, ascending in p1 and then in
    p2; with lefts, a collection of basis positions, only the products whose
    left factor p1 is one of them.

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
    if lefts is None:
        rows = [(c, range(k)) for c in range(len(cells))]
    else:
        by_cell: dict[int, list[int]] = {}  # cell -> support positions of its left factors
        for p1 in sorted(lefts):
            by_cell.setdefault(p1 // k, []).append(p1 % k)
        rows = by_cell.items()
    for c, xs in rows:
        i, j, _ = cells[c]
        off1 = c * k
        right = [(off2, number[i, l] * k) for l, off2 in by_row[j]]
        for x in xs:
            p1, px = off1 + x, prod[x]
            for off2, off3 in right:
                for y in range(k):
                    yield p1, off2 + y, x, y, off3 + px[y]


@lru_cache(maxsize=64)
def _generator_walk(shape: BlockShape, support: Subgroup) -> tuple[tuple[int, ...], ...]:
    """GradedAlgebra.generator_products of every algebra of this shape over this support."""
    return tuple(zip(*_products(shape, support, _generators(shape, support))))


def basis_of(p: FlagPresentation) -> tuple[BasisElem, ...]:
    """The basis of p's algebra, in the order every realization and witness uses.

    Ordered by (row block, column block, row, column, support position): cell
    number c of the shape holds its support position x at c * |H| + x.
    """
    return _layout(p.shape, p.division.support).basis


class _Layout(NamedTuple):
    """The basis of one shape over one support, its index, and by basis
    position row * n + column."""

    basis: tuple[BasisElem, ...]
    index: dict[BasisElem, int]
    at: tuple[int, ...]


@lru_cache(maxsize=64)
def _layout(shape: BlockShape, support: Subgroup) -> _Layout:
    """The layout of every algebra of this shape over this support.  It does
    not depend on the degree tuple, so it is built once and shared: the index
    must never be written to."""
    n, k, cells = shape.n, len(support.members), shape.cells()
    basis = tuple(BasisElem(i, j, h) for i, j, _ in cells for h in support.members)
    at = tuple(i * n + j for i, j, _ in cells for _ in range(k))
    return _Layout(basis, {b: p for p, b in enumerate(basis)}, at)


def _cell_degrees(p: FlagPresentation) -> Iterator[list[int]]:
    """The degrees g_i h g_j^-1, h in supp D by support position, of each cell
    (i, j) of p's shape in cells() order."""
    grp = p.group
    tbl = grp.table
    members = p.division.support.members
    for i, j, _ in p.shape.cells():
        gi, gj_inv = tbl[p.degrees[i]], grp.inv(p.degrees[j])
        yield [tbl[gi[h]][gj_inv] for h in members]


def realize(p: FlagPresentation) -> GradedAlgebra:
    """Build the graded algebra of p: the shared basis and index of its shape
    and support, and its degrees.

    Construction only; check_grading is the separate check of the grading law.
    """
    basis, index, _ = _layout(p.shape, p.division.support)
    return GradedAlgebra(p, basis, tuple(chain.from_iterable(_cell_degrees(p))), index)


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
    support.  When some s*b fails, the walk reruns over every nonzero
    product, so the report names each violation.  checked_products counts
    every nonzero product either way: cell (i,j) times each cell of row j,
    |H|^2 products per pair of cells.
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

    def dims_map(self) -> dict[int, int]:
        return dict(self.dims)


def invariants(alg: GradedAlgebra) -> GradedInvariants:
    """The invariants of alg, counted from its presentation's cells."""
    return _cell_invariants(alg.presentation)


def _cell_invariants(p: FlagPresentation) -> GradedInvariants:
    """The invariants of p's algebra, read from its cells without realizing it:
    cell (i,j) holds the degrees g_i h g_j^-1 for h in supp D."""
    by_gap = [[] for _ in range(p.shape.s)]  # the cells' degrees, by block gap
    for (_, _, gap), degrees in zip(p.shape.cells(), _cell_degrees(p)):
        by_gap[gap] += degrees
    # dims[c] is the degree profile of J^c, the cells of gap >= c; J^0 is the
    # algebra.  One count grows from the deepest gap down, so each cell's
    # degrees are counted once, not once per level at or below its gap.
    dims = [()] * p.shape.s
    acc: Counter[int] = Counter()
    for c in reversed(range(p.shape.s)):
        acc.update(by_gap[c])
        dims[c] = tuple(sorted(acc.items()))
    return GradedInvariants(sum(map(len, by_gap)), dims[0], tuple(enumerate(dims))[1:])
