"""Shared builders and oracles for the test suite.

make_sym constructs symmetric groups straight from permutation composition, so
group-layer tests can check Cayley-table arithmetic against an independent
model; dihedral_8 builds D8 from its own multiplication rule.
count_classes_pairwise counts isomorphism classes with the pairwise
engine alone, as an oracle for enumerate_classes.  admissible_shifts decides
D^g against D at every shift g, and least_form multiplies every degree by
every such shift: the oracles for canonical_form and the cached shift action
on cosets.  classify_by_tuples buckets every one of the |G|^n degree tuples
by least_form, as the oracle for classify's whole table; classes_by_burnside
counts the classes by Burnside's lemma over the coset multisets, from
admissible_shifts and cosets built as sets, as an oracle for the count.
product_pos and product multiply two basis elements straight from the
structure constants, as the pair-by-pair oracle for
GradedAlgebra.nonzero_products.
invariants_by_basis reads the graded and radical dimensions off a realized
basis, as the oracle for invariants, which reads them off the cells.
realize_by_basis builds a fresh basis, degree by degree, and its index, as
the oracle for realize, which shares one basis and index per shape and
support; derive_mapping_by_basis computes a witness's map one basis element
at a time, as the oracle for the map read off per-key tables.
cell_degrees yields the degrees of each cell in turn, and
invariants_by_cell counts them cell by cell, as the oracles for the one
degree array by basis position that realize stores and the profiles a NO
reads off the cells' cosets; separate_by_invariants names the least degree,
else the first radical power, at which two such counts differ, as the
oracle for a NO certificate's invariant mismatch; mismatch_by_shared_support
reads that mismatch with reps_only on a shared central support alone, as the
oracle for the reps_only count on a side with a trivial support;
witness_map_by_cell
extends a witness's images and exponents one cell at a time, as the oracle
for the two comprehensions by position.
inverted_witness_data and composed_witness_data compute the data of an
inverse and a composite witness with explicit corrector formulas, as the
oracle for invert_witness and compose_witness, which solve the tuple
relation for the correctors.  grading_by_products checks the grading law on
every nonzero product, as the oracle for check_grading, which checks it on
the generator products when they all hold.
associative_by_triples tests all |G|^3 triples, as the oracle for the table
check, which runs Light's test on a generating set; NONASSOC_LOOP is a
Latin square with identity that both reject.  closure_by_products closes a
seed under products on both sides, generators_by_rebuilding rebuilds that
closure after every generator it takes, and isomorphisms_by_closing extends
each tuple of generator images by its own depth-first closure: the oracles
for the one greedy closure walk behind subgroup_closure, Subgroup.generators
and find_isomorphisms.  validate_cocycle_by_triples checks the cocycle
identity on all |H|^3 triples, transport_by_pairs checks the homomorphism
law on all |H|^2 pairs, and subgroup_members_by_products checks closure on
all products of members: the oracles, error for error, for validate_cocycle
and transport, which check on the triples and pairs led by generators, and
for Subgroup, which decides closure by one closure walk.  solve_congruences_by_elimination
eliminates every system from scratch, as the oracle for solve_congruences,
which diagonalizes each matrix once and reads U b per right-hand side;
cohomologous_by_elimination builds the corrector system afresh and solves it
that way, as the oracle for cohomologous; cohomologous_by_dense_solve passes
the coboundary rows over every non-identity pair to solve_congruences, which
checks every row densely, and cohomologous_by_replay applies every row of
their diagonalization's row transform U to the full right-hand side: the
oracles for the verdict of cohomologous' solve on the generator rows, whose
corrector keeps the law and differs from theirs by a homomorphism H -> Z_L
(assert_solves_as, differ_by_a_homomorphism); is_corrector_by_pairs checks
the corrector law on all |H|^2 pairs, as the oracle for the law cohomologous
and is_corrector read on generator pairs.
verify_witness_by_dict is
verify_witness as it read a witness's map from a dict of basis elements and
walked the generator products afresh on every call, as the oracle for the
verifier on positions and shared product arrays; witness_with_map replaces a
witness's map by one given element by element, as a loaded witness carries
it, and products_read counts the basis products the checks read.
ACCEPTANCE_LINES
collects the acceptance suite's per-criterion verdict lines; they are printed
after the run, outside output capture.
"""

import contextlib
import itertools
from collections import Counter
from math import gcd, lcm, prod
from unittest import mock

from flagiso import (
    ISOMORPHIC,
    BasisElem,
    BlockShape,
    Classification,
    Cocycle,
    Corrector,
    FlagPresentation,
    GradedAlgebra,
    GradedDivisionAlgebra,
    GradedInvariants,
    GradingReport,
    Group,
    InvariantMismatch,
    InvalidInput,
    IsoWitness,
    Subgroup,
    WitnessReport,
    iso_algebras,
    iso_division,
    shift_conjugate,
    solve_congruences,
)
from flagiso.algebras import _coset_profiles
from flagiso.errors import _shown
from flagiso.io import _positions
from flagiso.iso import _separate
from flagiso.modlinalg import _diagonalize, _solve

pytest_plugins = ("pytester",)
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


def dihedral_8():
    """The dihedral group of order 8 as its own table: r^i s^j is 2i + j, and
    r^i s^j * r^k s^l = r^(i + (-1)^j k) s^(j + l)."""
    table = [
        [2 * ((i + (-1) ** j * k) % 4) + (j + l) % 2 for k in range(4) for l in range(2)]
        for i in range(4)
        for j in range(2)
    ]
    return Group(table, [f"r{i}s{j}" for i in range(4) for j in range(2)])


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


def validate_cocycle_by_triples(support: Subgroup, order: int, values) -> Cocycle:
    """Shape, normalization, and the cocycle identity on all |H|^3 triples, in member order."""
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


def transport_by_pairs(sigma: Cocycle, alpha, target: Subgroup) -> Cocycle:
    """The transported cocycle, alpha checked as a homomorphism on all |H|^2 pairs."""
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


def subgroup_members_by_products(group: Group, members) -> tuple[int, ...]:
    """The sorted members of a subgroup, checked as Subgroup checks them, with
    closure checked on every product of two members in member order."""
    for a in members:
        if not isinstance(a, int) or isinstance(a, bool):
            raise InvalidInput(f"cannot interpret {_shown(a)} as a group element", code="bad-element")
    mem = tuple(sorted(set(members)))
    if not mem or any(not 0 <= a < group.size for a in mem):
        raise InvalidInput("subgroup members out of range", code="bad-subgroup")
    if group.identity not in mem:
        raise InvalidInput("subgroup must contain the identity", code="bad-subgroup")
    for a in mem:
        for b in mem:
            if group.mul(a, b) not in mem:
                raise InvalidInput(
                    f"set not closed: {group.name_of(a)}*{group.name_of(b)} escapes",
                    code="bad-subgroup",
                )
    return mem


def closure_by_products(group: Group, seed) -> tuple[int, ...]:
    """The subgroup generated by seed, sorted: the seed closed under products on both sides."""
    members = {group.identity, *seed}
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        for b in list(members):
            for c in (group.mul(a, b), group.mul(b, a)):
                if c not in members:
                    members.add(c)
                    frontier.append(c)
    return tuple(sorted(members))


def generators_by_rebuilding(elems, group: Group) -> list[int]:
    """Elements by descending order (stable), each taken while outside the span
    of those taken before, the span rebuilt from scratch after each one."""
    gens: list[int] = []
    span = {group.identity}
    for a in sorted(elems, key=lambda x: -group.order_of(x)):
        if a not in span:
            gens.append(a)
            span = set(closure_by_products(group, gens))
    return gens


def isomorphisms_by_closing(h1, h2) -> list[dict[int, int]]:
    """Every isomorphism h1 -> h2, in find_isomorphisms' order: generator images
    tried depth first, each tuple extended to a map by a depth-first closure."""
    elems1, g1 = (h1.members, h1.group) if isinstance(h1, Subgroup) else (tuple(h1.elements()), h1)
    elems2, g2 = (h2.members, h2.group) if isinstance(h2, Subgroup) else (tuple(h2.elements()), h2)
    order1 = {a: g1.order_of(a) for a in elems1}
    order2 = {a: g2.order_of(a) for a in elems2}
    if sorted(order1.values()) != sorted(order2.values()):
        return []
    gens = generators_by_rebuilding(elems1, g1)
    by_order: dict[int, list[int]] = {}
    for a in elems2:
        by_order.setdefault(order2[a], []).append(a)

    found = []

    def extend(images):
        if len(images) < len(gens):
            for cand in by_order.get(order1[gens[len(images)]], []):
                extend(images + [cand])
            return
        f = {g1.identity: g2.identity}
        frontier = [g1.identity]
        while frontier:
            x = frontier.pop()
            for gen, img in zip(gens, images):
                y, fy = g1.mul(x, gen), g2.mul(f[x], img)
                if y not in f:
                    f[y] = fy
                    frontier.append(y)
                elif f[y] != fy:
                    return
        if len(f) == len(elems1) and len(set(f.values())) == len(elems2):
            found.append(f)

    extend([])
    return found


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


def admissible_shifts(division: GradedDivisionAlgebra) -> list[int]:
    """The shifts g with D^g isomorphic to D, by one division decision per shift."""
    return [
        g
        for g in division.group.elements()
        if iso_division(shift_conjugate(division, g), division) is not None
    ]


def least_form(support, blocks, degrees, shifts) -> tuple[int, ...]:
    """Over the shifts g, the least blockwise-sorted tuple of coset reps of d*g,
    multiplying every degree by every shift."""
    grp, rep = support.group, support.coset_rep
    return min(
        tuple(x for blk in blocks for x in sorted(rep[grp.mul(degrees[i], g)] for i in blk))
        for g in shifts
    )


def classify_by_tuples(group: Group, blocks, division: GradedDivisionAlgebra) -> Classification:
    """classify's table the exhaustive way: bucket every degree tuple by its least form."""
    shape = blocks if isinstance(blocks, BlockShape) else BlockShape(tuple(blocks))
    shifts = admissible_shifts(division)
    positions = shape.block_positions()
    buckets: dict[tuple[int, ...], int] = {}
    for tup in itertools.product(range(group.size), repeat=shape.n):
        key = least_form(division.support, positions, tup, shifts)
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
    shifts = admissible_shifts(division)
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


def witness_with_map(w, mapping, scalar_order=None) -> IsoWitness:
    """w with its map replaced by mapping (source basis element -> (target
    basis element, exponent)), and optionally its scalar order."""
    order = w.scalar_order if scalar_order is None else scalar_order
    images, exponents = _positions(mapping, w.source, w.target)
    return IsoWitness(
        w.source, w.target, w.shift, w.sigma, w.correctors, w.mu, order, images, exponents
    )


@contextlib.contextmanager
def products_read():
    """Within the block, count into the yielded list the basis products the
    checks read: the shared generator products on each read of them, and each
    product the all-products walk yields."""
    counts: list[int] = []
    shared = GradedAlgebra.generator_products
    walk = GradedAlgebra.nonzero_products

    def reading(alg):
        arrays = shared(alg)
        counts.append(len(arrays[0]))
        return arrays

    def walking(alg):
        for product in walk(alg):
            counts.append(1)
            yield product

    with mock.patch.object(GradedAlgebra, "generator_products", reading), mock.patch.object(
        GradedAlgebra, "nonzero_products", walking
    ):
        yield counts


def verify_witness_by_dict(alg, alg2, w) -> WitnessReport:
    """verify_witness on the witness's map as a dict: each image looked up in
    the target index, the degree and zero-pattern passes over basis elements,
    and scalars on the products s*b filtered out of the all-products walk,
    which reruns in full when one fails.  A scalar order below 1 is refused
    as one that embeds neither root group."""
    grp = alg.group
    failures: list[str] = []
    basis = alg.basis
    dim = len(basis)
    mapping = w.mapping
    if mapping.keys() != alg.index.keys():
        return WitnessReport(False, 0, ("map is not defined on exactly the source basis",))
    if dim != len(alg2.basis):
        return WitnessReport(False, 0, ("algebras have different dimensions",))
    order = w.scalar_order
    m1, m2 = alg.order, alg2.order
    if order < 1 or order % m1 or order % m2:
        return WitnessReport(
            False, 0, (f"scalar order {order} does not embed both mu_{m1} and mu_{m2}",)
        )
    k1, k2 = order // m1, order // m2
    img_pos = [0] * dim
    img_exp = [0] * dim
    for pos, b in enumerate(basis):
        tgt, exp = mapping[b]
        tpos = alg2.index.get(tgt)
        if tpos is None:
            failures.append(f"image of {tuple(b)} is not a basis element: {tuple(tgt)}")
            continue
        img_pos[pos] = tpos
        img_exp[pos] = exp % order
    if failures:
        return WitnessReport(False, 0, tuple(failures))
    if len(set(img_pos)) != dim:
        return WitnessReport(False, 0, ("map is not injective on basis elements",))
    for pos in range(dim):
        if alg2.degree[img_pos[pos]] != alg.degree[pos]:
            failures.append(
                f"degree mismatch at {tuple(basis[pos])}: "
                f"{grp.name_of(alg.degree[pos])} -> {grp.name_of(alg2.degree[img_pos[pos]])}"
            )
    if failures:
        return WitnessReport(False, 0, tuple(failures))
    img = [alg2.basis[t] for t in img_pos]
    units = [alg.index[BasisElem(k, k, grp.identity)] for k in range(alg.presentation.shape.n)]
    unit_col = [img[u].col for u in units]
    unit_row = [img[u].row for u in units]
    broken = {
        (units[b.row], pos) for pos, b in enumerate(basis) if unit_col[b.row] != img[pos].row
    }
    broken.update(
        (pos, units[b.col]) for pos, b in enumerate(basis) if img[pos].col != unit_row[b.col]
    )
    for p1, q in sorted(broken):
        failures.append(
            f"nonzero product {tuple(basis[p1])} * {tuple(basis[q])} maps to a zero product"
        )
    if failures:
        return WitnessReport(False, dim * dim, tuple(failures))
    sup2 = alg2.presentation.division.support.index
    vals2 = alg2.presentation.division.cocycle.values
    img_sup = [sup2[b.sup] for b in img]
    gens = set(alg.generators())
    for walk in ([t for t in alg.nonzero_products() if t[0] in gens], alg.nonzero_products()):
        failures = []
        for p1, q, s_exp, s_pos in walk:
            lhs = k1 * s_exp + img_exp[s_pos]
            rhs = img_exp[p1] + img_exp[q] + k2 * vals2[img_sup[p1]][img_sup[q]]
            if (lhs - rhs) % order:
                failures.append(
                    f"scalar mismatch at {tuple(basis[p1])} * {tuple(basis[q])}: "
                    f"exponent {lhs % order} != {rhs % order} (mod {order})"
                )
        if not failures:
            break
    return WitnessReport(not failures, dim * dim, tuple(failures))


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


def realize_by_basis(p) -> GradedAlgebra:
    """p's algebra with a basis, degrees and index all built afresh, one basis
    element at a time."""
    grp = p.group
    members = p.division.support.members
    elems = [BasisElem(i, j, h) for i, j, _ in p.shape.cells() for h in members]
    degs = tuple(
        grp.mul(grp.mul(p.degrees[b.row], b.sup), grp.inv(p.degrees[b.col])) for b in elems
    )
    return GradedAlgebra(p, tuple(elems), degs, {b: k for k, b in enumerate(elems)})


def cell_degrees(p):
    """The degrees g_i h g_j^-1, h in supp D by support position, of each cell
    (i, j) of p's shape in cells() order, one list per cell."""
    grp = p.group
    tbl = grp.table
    members = p.division.support.members
    for i, j, _ in p.shape.cells():
        gi, gj_inv = tbl[p.degrees[i]], grp.inv(p.degrees[j])
        yield [tbl[gi[h]][gj_inv] for h in members]


def invariants_by_cell(p) -> GradedInvariants:
    """The invariants of p's algebra, its cells' degrees gathered by block gap
    and counted from the deepest gap down."""
    by_gap = [[] for _ in range(p.shape.s)]
    for (_, _, gap), degrees in zip(p.shape.cells(), cell_degrees(p)):
        by_gap[gap] += degrees
    dims = [()] * p.shape.s
    acc: Counter[int] = Counter()
    for c in reversed(range(p.shape.s)):
        acc.update(by_gap[c])
        dims[c] = tuple(sorted(acc.items()))
    return GradedInvariants(sum(map(len, by_gap)), dims[0], tuple(enumerate(dims))[1:])


def separate_by_invariants(grp, inv1, inv2) -> str:
    """What tells two unequal invariants apart: the least degree whose
    dimension differs, else the first radical power whose profile differs."""
    d1, d2 = dict(inv1.dims), dict(inv2.dims)
    for u in sorted(set(d1) | set(d2)):
        a, b = d1.get(u, 0), d2.get(u, 0)
        if a != b:
            return f"dim at degree {grp.name_of(u)}: {a} vs {b}"
    for (c, r1), (_, r2) in zip(inv1.radical_dims, inv2.radical_dims):
        if r1 != r2:
            return f"radical power {c} dimension profile differs"
    return "graded invariants differ"


def mismatch_by_shared_support(p, p2):
    """A NO's invariant mismatch as iso_algebras read it when only one shared
    central support took the reps_only path: a side over a trivial support
    next to a different support expanded each cell through its one-element H."""
    sup = p.division.support
    reps_only = sup.central and sup == p2.division.support
    levels = zip(_coset_profiles(p, reps_only), _coset_profiles(p2, reps_only))
    for c, (dims1, dims2) in enumerate(levels):
        if dims1 != dims2:
            return InvariantMismatch(_separate(p.group, c, dims1, dims2))
    return None


def witness_map_by_cell(p, p2, shift, sigma, mu):
    """(images, exponents) of the witness with this shift, sigma and mu, one
    cell at a time: each cell looks up the table of its pair (a_k, a_l),
    building it when first met, and extends both by it, the images offset to
    the cell's target cell."""
    grp = p.group
    n = p.shape.n
    ginv = grp.inv(shift)
    correctors = [0] * n
    inv_sigma = [0] * n
    for i, k in enumerate(sigma):
        correctors[k] = grp.mul(grp.inv(p.degrees[k]), grp.mul(p2.degrees[i], ginv))
        inv_sigma[k] = i
    m2 = p2.division.order
    order = lcm(p.division.order, m2, mu.order)
    k2 = order // m2
    km = order // mu.order
    sup2 = p2.division.support
    index2 = sup2.index
    mul2 = sup2.mul_table
    vals2 = p2.division.cocycle.values
    a_of = [index2[grp.conj(grp.inv(h), shift)] for h in correctors]
    conj = [grp.conj(h, shift) for h in p.division.support.members]
    c_of = [index2[c] for c in conj]
    mu_of = [km * mu.exp_of(c) for c in conj]

    def cell_images(a, b):
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
    tables = {}
    images = []
    exponents = []
    for i, j, _ in p.shape.cells():
        key = (a_of[i], a_of[j])
        table = tables.get(key)
        if table is None:
            table = tables[key] = cell_images(*key)
        off = number[inv_sigma[i], inv_sigma[j]] * k
        images += [off + y for y in table[0]]
        exponents += table[1]
    return tuple(images), tuple(exponents)


def derive_mapping_by_basis(p, p2, shift, sigma, correctors, mu):
    """(mapping, scalar order) of the witness data, one basis element at a time:
    (k,l,h) goes to (sigma^-1 k, sigma^-1 l, a_k c a_l^-1) scaled by
    mu(c) * sigma'(a_k, c) * sigma'(a_k c, a_l^-1) / sigma'(a_l, a_l^-1),
    with a_k = g^-1 h_k^-1 g and c = g^-1 h g."""
    grp = p.group
    n = p.shape.n
    m2 = p2.division.order
    order = lcm(p.division.order, m2, mu.order)
    k2 = order // m2
    km = order // mu.order
    coc2 = p2.division.cocycle
    inv_sigma = [0] * n
    for i, s in enumerate(sigma):
        inv_sigma[s] = i
    a_of = [grp.conj(grp.inv(h), shift) for h in correctors]
    ainv_of = [grp.inv(a) for a in a_of]
    mapping = {}
    for i, j, _ in p.shape.cells():
        for h in p.division.support.members:
            b = BasisElem(i, j, h)
            c = grp.conj(h, shift)
            a = a_of[i]
            binv = ainv_of[j]
            ac = grp.mul(a, c)
            exp = km * mu.exp_of(c) + k2 * (
                coc2.val(a, c) + coc2.val(ac, binv) - coc2.val(a_of[j], binv)
            )
            target = BasisElem(inv_sigma[i], inv_sigma[j], grp.mul(ac, binv))
            mapping[b] = (target, exp % order)
    return mapping, order


def inverted_witness_data(w):
    """(source, target, shift, sigma, correctors, mu) of the inverse of w:
    shift g^-1, sigma^-1, h'_i = g^-1 h_sigma(i)^-1 g and mu'(h) = 1/mu(g^-1 h g)."""
    p, p2 = w.source, w.target
    grp = p.group
    g = w.shift
    n = p.shape.n
    sigma = [0] * n
    for i in range(n):
        sigma[w.sigma[i]] = i
    correctors = [grp.conj(grp.inv(w.correctors[w.sigma[i]]), g) for i in range(n)]
    mu = Corrector.from_map(p.division.support, w.mu.order, lambda h: -w.mu.exp_of(grp.conj(h, g)))
    return p2, p, grp.inv(g), tuple(sigma), tuple(correctors), mu


def composed_witness_data(w1, w2):
    """(source, target, shift, sigma, correctors, mu) of w2 after w1: shift
    g1 g2, sigma1 sigma2, h_k = h1_k g1 h2_m g1^-1 with m the position of
    w1's target matched to source position k, and
    mu(c) = mu1(g2 c g2^-1) mu2(c)."""
    grp = w1.source.group
    n = w1.source.shape.n
    sigma = tuple(w1.sigma[w2.sigma[i]] for i in range(n))
    inv_sigma1 = [0] * n
    for i in range(n):
        inv_sigma1[w1.sigma[i]] = i
    g1inv = grp.inv(w1.shift)
    correctors = tuple(
        grp.mul(w1.correctors[k], grp.conj(w2.correctors[inv_sigma1[k]], g1inv)) for k in range(n)
    )
    order = lcm(w1.mu.order, w2.mu.order)
    k1, k2 = order // w1.mu.order, order // w2.mu.order
    g2inv = grp.inv(w2.shift)
    mu = Corrector.from_map(
        w2.target.division.support,
        order,
        lambda c: k1 * w1.mu.exp_of(grp.conj(c, g2inv)) + k2 * w2.mu.exp_of(c),
    )
    return w1.source, w2.target, grp.mul(w1.shift, w2.shift), sigma, correctors, mu


def grading_by_products(alg) -> GradingReport:
    """check_grading's report from the law checked on every nonzero product."""
    grp = alg.group
    checked = 0
    bad = []
    for p1, p2, _, pos in alg.nonzero_products():
        checked += 1
        want = grp.mul(alg.degree[p1], alg.degree[p2])
        got = alg.degree[pos]
        if got != want:
            bad.append(
                f"deg({tuple(alg.basis[p1])} * {tuple(alg.basis[p2])}) = "
                f"{grp.name_of(got)}, expected {grp.name_of(want)}"
            )
    return GradingReport(not bad, checked, tuple(bad))


def solve_congruences_by_elimination(a, rhs, modulus):
    """One solution x of A x = rhs (mod modulus), or None, by eliminating from scratch.

    Every pivot scan restarts at row and column 0, and b is carried through the
    elimination itself instead of being read off a memoized row transform U.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    if len(rhs) != nrows:
        raise ValueError("rhs length mismatch")
    if modulus == 1:
        return [0] * ncols
    L = modulus
    A = [[v % L for v in row] for row in a]
    b = [v % L for v in rhs]
    V = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_sub(i: int, q: int, k: int) -> None:
        Ai, Ak = A[i], A[k]
        for j in range(ncols):
            Ai[j] = (Ai[j] - q * Ak[j]) % L
        b[i] = (b[i] - q * b[k]) % L

    def col_sub(j: int, q: int, k: int) -> None:
        for row in A:
            row[j] = (row[j] - q * row[k]) % L
        for row in V:
            row[j] = (row[j] - q * row[k]) % L

    def swap_rows(i: int, k: int) -> None:
        A[i], A[k] = A[k], A[i]
        b[i], b[k] = b[k], b[i]

    def swap_cols(j: int, k: int) -> None:
        for row in A:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    rank_bound = min(nrows, ncols)
    k = 0
    while k < rank_bound:
        pivot = None
        for i in range(k, nrows):
            for j in range(k, ncols):
                v = A[i][j]
                if v and (pivot is None or v < A[pivot[0]][pivot[1]]):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot != (k, k):
            swap_rows(pivot[0], k)
            swap_cols(pivot[1], k)
        while True:
            p = A[k][k]
            off = next((i for i in range(nrows) if i != k and A[i][k]), None)
            if off is not None:
                row_sub(off, A[off][k] // p, k)
                if A[off][k]:  # remainder became the new, smaller pivot
                    swap_rows(off, k)
                continue
            off = next((j for j in range(ncols) if j != k and A[k][j]), None)
            if off is not None:
                col_sub(off, A[k][off] // p, k)
                if A[k][off]:
                    swap_cols(off, k)
                continue
            break
        k += 1

    # diagonal solve: A is now diag(d_0..d_{k-1}) with everything else zero
    y = [0] * ncols
    for i in range(nrows):
        d = A[i][i] if i < ncols else 0
        c = b[i]
        g = gcd(d, L)
        if c % g:
            return None
        if d and i < ncols:
            Lg = L // g
            y[i] = (c // g) * pow((d // g) % Lg, -1, Lg) % Lg if Lg > 1 else 0

    x = [sum(V[i][j] * y[j] for j in range(ncols)) % L for i in range(ncols)]
    for row, want in zip(a, rhs):  # exactness check against the original system
        got = sum(v * xi for v, xi in zip(row, x)) % L
        if got != want % L:
            raise AssertionError("internal solver error: solution fails the original system")
    return x


def cohomologous_by_elimination(sigma, tau):
    """Corrector exponents by support position, or None: the corrector law on the
    non-identity pairs, built afresh and solved by solve_congruences_by_elimination."""
    sub = sigma.support
    grp = sub.group
    L = lcm(sigma.order, tau.order)
    ks, kt = L // sigma.order, L // tau.order
    e = grp.identity
    unknowns = [h for h in sub.members if h != e]
    col = {h: i for i, h in enumerate(unknowns)}
    rows, rhs = [], []
    for a in unknowns:
        for b in unknowns:
            coeff = [0] * len(unknowns)
            coeff[col[a]] += 1
            coeff[col[b]] += 1
            ab = grp.mul(a, b)
            if ab != e:
                coeff[col[ab]] -= 1
            rows.append(coeff)
            rhs.append(ks * sigma.val(a, b) - kt * tau.val(a, b))
    sol = solve_congruences_by_elimination(rows, rhs, L)
    if sol is None:
        return None
    return tuple(0 if h == e else sol[col[h]] for h in sub.members)


def coboundary_rows(sub):
    """The coefficients of u(a) + u(b) - u(ab) over the non-identity pairs
    (a, b) of sub, one column per non-identity member, and the support
    positions of those members."""
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


def cohomologous_by_dense_solve(sigma, tau):
    """The corrector that solve_congruences finds over the coboundary rows,
    or None: the right-hand side by non-identity pair, 0 at e."""
    sub = sigma.support
    L = lcm(sigma.order, tau.order)
    ks, kt = L // sigma.order, L // tau.order
    rows, pos = coboundary_rows(sub)
    sv, tv = sigma.values, tau.values
    rhs = [ks * sv[i][j] - kt * tv[i][j] for i in pos for j in pos]
    sol = solve_congruences(rows, rhs, L)
    if sol is None:
        return None
    sol.insert(sub.index[sub.group.identity], 0)
    return Corrector(sub, L, tuple(sol))


def cohomologous_by_replay(sigma, tau):
    """The corrector cohomologous finds, or None: every row of the row
    transform U applied to the full right-hand side, then checked by the
    corrector law."""
    sub = sigma.support
    if sigma.order == tau.order and sigma.values == tau.values:
        return Corrector(sub, sigma.order, (0,) * len(sub.members))
    L = lcm(sigma.order, tau.order)
    ks, kt = L // sigma.order, L // tau.order
    rows, pos = coboundary_rows(sub)
    sv, tv = sigma.values, tau.values
    rhs = [ks * sv[i][j] - kt * tv[i][j] for i in pos for j in pos]
    if not any(v % L for v in rhs):
        return Corrector(sub, L, (0,) * len(sub.members))
    u = _solve(_diagonalize(rows, L), rhs, L)
    if u is None:
        return None
    u.insert(sub.index[sub.group.identity], 0)
    table = sub.mul_table
    pairs = [(a, b, table[a][b]) for a in pos for b in pos]
    if any((u[a] + u[b] - u[ab] - r) % L for (a, b, ab), r in zip(pairs, rhs)):
        raise AssertionError("internal solver error: solution fails the original system")
    return Corrector(sub, L, tuple(u))


def differ_by_a_homomorphism(mu, nu) -> bool:
    """Whether two maps on one support in one order L differ by a homomorphism
    H -> Z_L, checked on every pair.  Two correctors of one pair of cocycles
    always do, and a corrector plus any such homomorphism is again one: with
    the corrector law, this pins a corrector up to the whole solution set."""
    if (mu.support, mu.order) != (nu.support, nu.order):
        return False
    d = [x - y for x, y in zip(mu.exps, nu.exps)]
    return not any(
        (d[ab] - d[a] - d[b]) % mu.order
        for a, row in enumerate(mu.support.mul_table)
        for b, ab in enumerate(row)
    )


def assert_solves_as(got, want, pair):
    """got decides as the oracle's want, and is a corrector of pair that
    differs from want by a homomorphism H -> Z_L: the rows cohomologous
    solves pick their own particular solution from the same solution set."""
    assert (got is None) == (want is None)
    if got is not None:
        assert is_corrector_by_pairs(got, *pair)
        assert differ_by_a_homomorphism(got, want)


def is_corrector_by_pairs(mu, sigma, tau) -> bool:
    """The corrector law sigma(a,b) mu(ab) = mu(a) mu(b) tau(a,b), checked on
    every pair of the support in mu_lcm; False for a mu on another support."""
    if sigma.support.group != tau.support.group or sigma.support.members != tau.support.members:
        raise InvalidInput("cocycles live on different supports", code="support-mismatch")
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
