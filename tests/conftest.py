"""Shared builders and oracles for the test suite.

make_sym constructs symmetric groups straight from permutation composition, so
group-layer tests can check Cayley-table arithmetic against an independent
model.  count_classes_pairwise counts isomorphism classes with the pairwise
engine alone, as an oracle for enumerate_classes.  classify_by_tuples takes
the canonical form of every one of the |G|^n degree tuples, as the oracle for
classify's whole table; classes_by_burnside counts the classes by Burnside's
lemma over the coset multisets, from the per-shift division loop and cosets
built as sets, as an oracle for the count.  product_pos and product multiply
two basis elements straight from the structure constants, as the
pair-by-pair oracle for GradedAlgebra.nonzero_products.
invariants_by_basis reads the graded and radical dimensions off a realized
basis, as the oracle for invariants, which reads them off the cells.
associative_by_triples tests all |G|^3 triples, as the oracle for the table
check, which runs Light's test on a generating set; NONASSOC_LOOP is a
Latin square with identity that both reject.  ACCEPTANCE_LINES
collects the acceptance suite's per-criterion verdict lines; they are printed
after the run, outside output capture.
"""

import itertools
from collections import Counter
from math import prod

from flagiso import (
    ISOMORPHIC,
    BasisElem,
    BlockShape,
    Classification,
    FlagPresentation,
    GradedDivisionAlgebra,
    GradedInvariants,
    Group,
    iso_algebras,
    iso_division,
    shift_conjugate,
)
from flagiso.iso import _admissible_shifts, _least_form

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def compose(p, q):
    """Permutation product p*q = apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def invert_perm(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def make_sym(n):
    """(S_n as a Group, list of permutation tuples, tuple -> index)."""
    perms = sorted(itertools.permutations(range(n)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[compose(p, q)] for q in perms] for p in perms]
    names = ["".join(str(x) for x in p) for p in perms]
    return Group(table, names), perms, idx


# a Latin square with two-sided identity 0 that is not associative:
# (1*1)*2 = 0*2 = 2 but 1*(1*2) = 1*3 = 4
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def associative_by_triples(tbl) -> bool:
    """(a*b)*c == a*(b*c) for every one of the |G|^3 triples."""
    n = len(tbl)
    return all(
        tbl[tbl[a][b]][c] == tbl[a][tbl[b][c]] for a in range(n) for b in range(n) for c in range(n)
    )


def count_classes_pairwise(group: Group, blocks, division: GradedDivisionAlgebra) -> int:
    """Class count by union-find over all tuple pairs, using only iso_algebras.

    Independent of the canonical-form machinery; intended as a cross-check for
    small instances (cost is quadratic in |G|^n).
    """
    shape = blocks if isinstance(blocks, BlockShape) else BlockShape(tuple(blocks))
    tuples = list(itertools.product(range(group.size), repeat=shape.n))
    parent = list(range(len(tuples)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(tuples)):
        for j in range(i + 1, len(tuples)):
            if find(i) == find(j):
                continue
            a = FlagPresentation(division, shape, tuples[i])
            b = FlagPresentation(division, shape, tuples[j])
            if iso_algebras(a, b).kind == ISOMORPHIC:
                parent[find(j)] = find(i)
    return len({find(i) for i in range(len(tuples))})


def classify_by_tuples(group: Group, blocks, division: GradedDivisionAlgebra) -> Classification:
    """classify's table the exhaustive way: bucket every degree tuple by its canonical form."""
    shape = blocks if isinstance(blocks, BlockShape) else BlockShape(tuple(blocks))
    shifts = _admissible_shifts(division)
    positions = shape.block_positions()
    buckets: dict[tuple[int, ...], int] = {}
    for tup in itertools.product(range(group.size), repeat=shape.n):
        key = _least_form(division.support, positions, tup, shifts)
        buckets[key] = buckets.get(key, 0) + 1
    reps = tuple(sorted(buckets))
    return Classification(
        group,
        shape,
        division,
        reps,
        tuple(buckets[r] for r in reps),
        group.size**shape.n,
        tuple(shifts),
    )


def classes_by_burnside(group: Group, blocks, division: GradedDivisionAlgebra) -> int:
    """The class count (1/|S|) * sum over g in S of prod_b fix_b(g), by Burnside's lemma.

    S is the set of admissible shifts, found by one division decision per
    shift; g acts on the left cosets of the support H by xH -> xgH, and
    fix_b(g), the number of size-m_b coset multisets it fixes, is the
    coefficient of x^m_b in the product over the cycles c of g of
    1/(1 - x^|c|).
    """
    shape = blocks if isinstance(blocks, BlockShape) else BlockShape(tuple(blocks))
    members = division.support.members
    cosets = {frozenset(group.mul(x, h) for h in members) for x in group.elements()}
    shifts = [
        g
        for g in group.elements()
        if iso_division(shift_conjugate(division, g), division) is not None
    ]
    top = max(shape.blocks)
    fixed = 0
    for g in shifts:
        image = {c: frozenset(group.mul(x, g) for x in c) for c in cosets}
        assert set(image.values()) == cosets, "an admissible shift must permute the cosets"
        series = [1] + [0] * top  # prod over the cycles so far of 1/(1 - x^|c|), to x^top
        left = set(cosets)
        while left:
            c, length = left.pop(), 1
            while (c := image[c]) in left:
                left.remove(c)
                length += 1
            for k in range(length, top + 1):
                series[k] += series[k - length]
        fixed += prod(series[m] for m in shape.blocks)
    assert fixed % len(shifts) == 0
    return fixed // len(shifts)


def product_pos(alg, p1: int, p2: int):
    """(scalar exponent, basis position) of basis[p1]*basis[p2], or None if zero."""
    b1 = alg.basis[p1]
    b2 = alg.basis[p2]
    if b1.col != b2.row:
        return None
    target = BasisElem(b1.row, b2.col, alg.group.mul(b1.sup, b2.sup))
    return alg.presentation.division.cocycle.val(b1.sup, b2.sup), alg.index[target]


def product(alg, b1, b2):
    """(scalar exponent, basis element) of b1*b2, or None if zero."""
    res = product_pos(alg, alg.index[b1], alg.index[b2])
    if res is None:
        return None
    exp, pos = res
    return exp, alg.basis[pos]


def invariants_by_basis(alg) -> GradedInvariants:
    """Graded dimensions, and those of each J^c, counted over the realized basis."""
    shape = alg.presentation.shape
    block_of = [shape.block_of(i) for i in range(shape.n)]
    dims = Counter(alg.degree)
    radical = []
    for c in range(1, shape.s):
        sub = Counter(
            alg.degree[pos]
            for pos, b in enumerate(alg.basis)
            if block_of[b.col] - block_of[b.row] >= c
        )
        radical.append((c, tuple(sorted(sub.items()))))
    return GradedInvariants(alg.dim, tuple(sorted(dims.items())), tuple(radical))
