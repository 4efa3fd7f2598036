"""Shared builders and oracles for the test suite.

make_sym constructs symmetric groups straight from permutation composition, so
group-layer tests can check Cayley-table arithmetic against an independent
model.  count_classes_pairwise counts isomorphism classes with the pairwise
engine alone, as an oracle for enumerate_classes.  product_pos and product
multiply two basis elements straight from the structure constants, as the
pair-by-pair oracle for GradedAlgebra.nonzero_products.  ACCEPTANCE_LINES collects
the acceptance suite's per-criterion verdict lines; they are printed after the
run, outside output capture.
"""

import itertools

from flagiso import (
    ISOMORPHIC,
    BasisElem,
    BlockShape,
    FlagPresentation,
    GradedDivisionAlgebra,
    Group,
    iso_algebras,
)

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
