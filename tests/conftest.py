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
which diagonalizes the matrix and reads U b; cohomologous_by_elimination
builds the coboundary rows over every non-identity pair afresh and solves
them that way, cohomologous_by_dense_solve passes those rows to
solve_congruences, which checks every row densely, and
cohomologous_by_replay applies every row of their diagonalization's row
transform U to the full right-hand side: the oracles for the verdict of
cohomologous' solve on the generator rows, whose corrector keeps the law
and differs from theirs by a homomorphism H -> Z_L (assert_solves_as,
differ_by_a_homomorphism).  all_cocycles_by_brute lists every normalized
cocycle of a small support by its identity on all triples, and
corrector_by_brute tries every exponent vector against the corrector law:
the exhaustive oracles for the cocycle solver.  z2_bilinear builds the
bilinear cocycle table of Z2^r that the large-support checks use.
is_corrector_by_pairs checks the corrector law on all |H|^2 pairs, as the
oracle for the law cohomologous and is_corrector read on generator pairs.
verify_witness_by_dict is
verify_witness as it read a witness's map from a dict of basis elements and
walked the generator products afresh on every call, as the oracle for the
verifier on positions and shared product arrays; witness_with_map replaces a
witness's map by one given element by element, as a loaded witness carries
it, and products_read counts the basis products the checks read.
verify_equiv_by_degrees is verify_equiv_witness as it read the realized
algebras' degree arrays, each image looked up in the target index and the
component dimensions counted over the degrees, with the same last check
that lam sends each source degree to its image's, as the oracle for the
check on the two presentations.
iso_over_fp searches for a graded isomorphism over F_q (field_for picks q,
primitive_root fixes the roots of unity, OverFp reads an algebra's structure
constants, affine_solutions solves the linear conditions on one generator's
image) by backtracking over the images of the generators: the theorem-free
oracle for iso_algebras, which knows no shift, pairing or corrector.
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
    build_abelian,
    iso_algebras,
    iso_division,
    realize,
    shift_conjugate,
    solve_congruences,
    validate_cocycle,
)
import flagiso.iso
from flagiso.algebras import _coset_profiles, _Layout
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
    checks read: the shared generator products on each read of them, through
    GradedAlgebra.generator_products or off the layout that the map check
    reads in flagiso.iso, and each product an all-products walk yields,
    check_grading's (GradedAlgebra.nonzero_products) or the map check's own
    (flagiso.iso._products)."""
    counts: list[int] = []
    shared = GradedAlgebra.generator_products
    layout = flagiso.iso._layout

    def reading(alg):
        arrays = shared(alg)
        counts.append(len(arrays[0]))
        return arrays

    def counted(walk):
        def walking(*args):
            for product in walk(*args):
                counts.append(1)
                yield product

        return walking

    class Counted(_Layout):
        __slots__ = ()

        @property
        def walk(self):
            arrays = super().walk
            counts.append(len(arrays[0]))
            return arrays

    with (
        mock.patch.object(GradedAlgebra, "generator_products", reading),
        mock.patch.object(GradedAlgebra, "nonzero_products", counted(GradedAlgebra.nonzero_products)),
        mock.patch.object(flagiso.iso, "_products", counted(flagiso.iso._products)),
        mock.patch.object(flagiso.iso, "_layout", lambda *key: Counted(*layout(*key))),
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


def verify_equiv_by_degrees(alg, alg2, ew) -> WitnessReport:
    """verify_equiv_witness on the degree arrays of the realized algebras: each
    image (sigma i, sigma j, e) looked up in the target index, its degree read
    there, and the component dimensions counted over both degree arrays.  It
    names a split component once for every cell that splits it.  When all
    that passes, lam must send each source degree g_i to g'_{sigma i}."""
    failures: list[str] = []
    sigma = ew.sigma
    shape = alg.presentation.shape
    if any(type(k) is not int for k in sigma) or sorted(sigma) != list(range(shape.n)):
        return WitnessReport(False, 0, ("sigma is not a permutation",))
    if alg.dim != alg2.dim:
        return WitnessReport(False, 0, ("algebras have different dimensions",))
    if not alg.presentation.division.is_trivial():
        return WitnessReport(False, 0, ("nontrivial division part in equivalence check",))
    e2 = alg2.group.identity
    img_degree: dict[int, int] = {}
    checked = 0
    for pos, (i, j, _) in enumerate(shape.cells()):
        tpos = alg2.index.get(BasisElem(sigma[i], sigma[j], e2))
        if tpos is None:
            failures.append(f"image of e_{i + 1}{j + 1} leaves the algebra")
            continue
        checked += 1
        u = alg.degree[pos]
        w = alg2.degree[tpos]
        if img_degree.setdefault(u, w) != w:
            failures.append(
                f"component at degree {alg.group.name_of(u)} is split across target degrees"
            )
    if failures:
        return WitnessReport(False, checked, tuple(failures))
    if len(set(img_degree.values())) != len(img_degree):
        failures.append("two components merge into one target degree")
    dims1, dims2 = Counter(alg.degree), Counter(alg2.degree)
    for u, w in img_degree.items():
        if dims1[u] != dims2[w]:
            failures.append(
                f"component dimensions differ: {dims1[u]} at {alg.group.name_of(u)} "
                f"vs {dims2[w]} at {alg2.group.name_of(w)}"
            )
    for u, cm in ew.component_map.items():
        if img_degree.get(u) != cm:
            failures.append("stated component map disagrees with the induced map")
            break
    if not failures:
        degrees, degrees2 = alg.presentation.degrees, alg2.presentation.degrees
        wrong = [i for i in range(shape.n) if ew.lam.get(degrees[i]) != degrees2[sigma[i]]]
        if wrong:
            i = wrong[0]
            failures.append(
                f"lam does not send {alg.group.name_of(degrees[i])} to "
                f"{alg2.group.name_of(degrees2[sigma[i]])} at position {i + 1}"
            )
    return WitnessReport(not failures, checked, tuple(failures))


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
    elimination itself instead of being read off a row transform U.
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
    """A corrector, or None: the corrector law on the non-identity pairs, built
    afresh and solved by solve_congruences_by_elimination."""
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
    return Corrector(sub, L, tuple(0 if h == e else sol[col[h]] for h in sub.members))


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


def all_cocycles_by_brute(sub, order):
    """Every normalized 2-cocycle on sub in mu_order, validated: each normalized
    table is kept when the identity holds on all |H|^3 triples."""
    grp = sub.group
    members = sub.members
    e = grp.identity
    free = [(a, b) for a in members for b in members if a != e and b != e]
    found = []
    for combo in itertools.product(range(order), repeat=len(free)):
        vals = dict(zip(free, combo))

        def val(a, b):
            return 0 if a == e or b == e else vals[(a, b)]

        if all(
            (val(a, b) + val(grp.mul(a, b), c)) % order
            == (val(b, c) + val(a, grp.mul(b, c))) % order
            for a in members
            for b in members
            for c in members
        ):
            found.append(validate_cocycle(sub, order, [[val(a, b) for b in members] for a in members]))
    return found


def corrector_by_brute(sigma, tau):
    """A normalized corrector as {member: exponent mod lcm}, or None: every
    exponent vector is tried against the corrector law on all |H|^2 pairs."""
    sub = sigma.support
    grp = sub.group
    L = lcm(sigma.order, tau.order)
    ks, kt = L // sigma.order, L // tau.order
    e = grp.identity
    rest = [h for h in sub.members if h != e]
    for combo in itertools.product(range(L), repeat=len(rest)):
        u = {e: 0, **dict(zip(rest, combo))}
        if all(
            (ks * sigma.val(a, b) + u[grp.mul(a, b)]) % L
            == (u[a] + u[b] + kt * tau.val(a, b)) % L
            for a in sub.members
            for b in sub.members
        ):
            return u
    return None


def z2_bilinear(r):
    """The full support of Z2^r and the exponent table of its bilinear cocycle
    sigma(a, b) = sum of a_i b_(i+1) mod 2: an element's index bits are its
    coordinates."""
    grp = build_abelian([2] * r)
    sub = Subgroup(grp, tuple(grp.elements()))
    return sub, [[bin(a & (b >> 1)).count("1") % 2 for b in sub.members] for a in sub.members]


# -- graded isomorphism over F_q, from structure constants alone ---------------


def field_for(p, p2) -> int:
    """The least prime q with q not dividing |G| and q = 1 mod N, N the lcm of
    the two root orders times the exponent of the supports: F_q then holds
    mu_N, every root of unity a corrector between the two can take."""
    grp = p.group
    exponent = lcm(*(grp.order_of(h) for d in (p.division, p2.division) for h in d.support.members))
    step = lcm(p.division.order, p2.division.order) * exponent
    q = step + 1
    while q < 2 or grp.size % q == 0 or any(q % f == 0 for f in range(2, int(q**0.5) + 1)):
        q += step
    return q


def primitive_root(q: int) -> int:
    """The least generator of the multiplicative group of F_q, q prime."""
    primes = {f for f in range(2, q) if (q - 1) % f == 0 and all(f % d for d in range(2, f))}
    return next(r for r in range(1, q) if all(pow(r, (q - 1) // f, q) != 1 for f in primes))


class OverFp:
    """A realized algebra over F_q, read off its structure constants: the
    scalar of exponent x in mu_m is root^((q-1)/m * x), so two algebras read
    with one root embed their roots of unity consistently, as in C."""

    def __init__(self, alg: GradedAlgebra, q: int, root: int):
        zeta = pow(root, (q - 1) // alg.order, q)
        self.q, self.dim, self.degree = q, alg.dim, alg.degree
        self.rows: list[list[tuple[int, int, int]]] = [[] for _ in range(alg.dim)]
        self.prod: dict[tuple[int, int], tuple[int, int]] = {}
        for p1, p2, exp, pos in alg.nonzero_products():
            c = pow(zeta, exp, q)
            self.rows[p1].append((p2, c, pos))
            self.prod[p1, p2] = (c, pos)
        e = alg.group.identity
        self.one = tuple(int(b.row == b.col and b.sup == e) for b in alg.basis)
        self.by_degree: dict[int, list[int]] = {}
        for pos, g in enumerate(alg.degree):
            self.by_degree.setdefault(g, []).append(pos)

    def unit(self, pos: int) -> tuple[int, ...]:
        return tuple(int(i == pos) for i in range(self.dim))

    def mul(self, u, v) -> tuple[int, ...]:
        out = [0] * self.dim
        for i, a in enumerate(u):
            if a:
                for j, c, pos in self.rows[i]:
                    if v[j]:
                        out[pos] += a * c * v[j]
        return tuple(x % self.q for x in out)

    def min_poly(self, v) -> list[int]:
        """c_0..c_(r-1) with v^r = sum c_i v^i and r least: the minimal polynomial."""
        powers = [self.one, tuple(v)]
        while True:
            solved = affine_solutions(list(zip(*powers[:-1])), powers[-1], len(powers) - 1, self.q)
            if solved is not None:
                return solved[0]
            powers.append(self.mul(powers[-1], v))

    def is_root(self, coeffs: list[int], v) -> bool:
        power, acc = self.one, [0] * self.dim
        for c in coeffs:
            acc = [a + c * x for a, x in zip(acc, power)]
            power = self.mul(power, v)
        return all((x - a) % self.q == 0 for x, a in zip(power, acc))


def affine_solutions(rows, rhs, nvars: int, q: int):
    """(x0, null basis) with rows x = rhs mod the prime q exactly when x is x0
    plus a combination of the null basis, or None when there is no solution:
    Gauss-Jordan elimination."""
    m = [[x % q for x in row] + [b % q] for row, b in zip(rows, rhs)]
    pivots: list[int] = []
    for c in range(nvars):
        r = len(pivots)
        at = next((i for i in range(r, len(m)) if m[i][c]), None)
        if at is None:
            continue
        m[r], m[at] = m[at], m[r]
        inv = pow(m[r][c], q - 2, q)
        m[r] = [x * inv % q for x in m[r]]
        for i, row in enumerate(m):
            if i != r and row[c]:
                f = row[c]
                m[i] = [(x - f * y) % q for x, y in zip(row, m[r])]
        pivots.append(c)
    if any(row[-1] for row in m[len(pivots):]):
        return None
    x0 = [0] * nvars
    for i, c in enumerate(pivots):
        x0[c] = m[i][-1]
    null = []
    for f in (c for c in range(nvars) if c not in pivots):
        vec = [0] * nvars
        vec[f] = 1
        for i, c in enumerate(pivots):
            vec[c] = -m[i][f] % q
        null.append(vec)
    return x0, null


class NodeBudgetExceeded(Exception):
    """iso_over_fp tried more candidate images than its budget allows."""


def iso_over_fp(p, p2, budget: int = 200_000, q: int | None = None):
    """A graded isomorphism between the algebras of p and p2 over F_q (q
    prime, by default field_for's), as {source basis position: image
    vector}, or None when there is none; it reads only the two algebras'
    degrees and structure constants, and none of the paper's description of
    an isomorphism.

    Component dimensions by degree must agree.  Then it backtracks over the
    images of GradedAlgebra.generators(), ascending, each a nonzero vector of
    the target component of the generator's degree that is a root of the
    generator's minimal polynomial.  The candidates for a generator s are
    the points of an affine space: s*b = c z, s*b = 0, b*s = c z and b*s = 0
    for b and z whose images are known are linear in the image of s.  Each
    choice is closed under products of known images, both ways round: an
    unknown product's image is set, a known one must agree, a zero product
    must map to zero, and the images must stay linearly independent.  The
    first inconsistency prunes.  A complete map is accepted when it is
    graded, has full rank and is multiplicative on generators x basis.
    budget bounds the candidate points enumerated; past it,
    NodeBudgetExceeded is raised."""
    alg, alg2 = realize(p), realize(p2)
    if p.group != p2.group or Counter(alg.degree) != Counter(alg2.degree):
        return None
    q = field_for(p, p2) if q is None else q
    root = primitive_root(q)
    src, tgt = OverFp(alg, q, root), OverFp(alg2, q, root)
    gens = alg.generators()
    polys = {s: src.min_poly(src.unit(s)) for s in gens}
    spent = [0]

    def candidates(s, known):
        comp = tgt.by_degree.get(src.degree[s], [])
        units = [tgt.unit(t) for t in comp]
        rows, rhs = [], []
        for b, fb in known.items():
            for pair, right in (((s, b), True), ((b, s), False)):
                hit = src.prod.get(pair)
                if hit is not None and hit[1] not in known:
                    continue
                cols = [tgt.mul(u, fb) if right else tgt.mul(fb, u) for u in units]
                rows += [list(r) for r in zip(*cols)]
                rhs += [0] * tgt.dim if hit is None else [hit[0] * x for x in known[hit[1]]]
        solved = affine_solutions(rows, rhs, len(comp), q) if rows else ([0] * len(comp), None)
        if solved is None:
            return
        x0, null = solved
        if null is None:
            null = [[int(i == t) for i in range(len(comp))] for t in range(len(comp))]
        for coeffs in itertools.product(range(q), repeat=len(null)):
            spent[0] += 1
            if spent[0] > budget:
                raise NodeBudgetExceeded(f"more than {budget} candidate images")
            x = [(a + sum(c * n[t] for c, n in zip(coeffs, null))) % q for t, a in enumerate(x0)]
            v = [0] * tgt.dim
            for t, pos in enumerate(comp):
                v[pos] = x[t]
            if any(v) and tgt.is_root(polys[s], v):
                yield tuple(v)

    def close(known, echelon, s, v):
        """known and echelon extended by s -> v and closed under products, or None."""
        known, echelon = dict(known), list(echelon)
        queue = [(s, v)]
        while queue:
            x, fx = queue.pop()
            if x in known:
                if known[x] != fx:
                    return None
                continue
            reduced = list(fx)
            for pivot, row in echelon:
                if reduced[pivot]:
                    f = reduced[pivot]
                    reduced = [(a - f * r) % q for a, r in zip(reduced, row)]
            pivot = next((i for i, a in enumerate(reduced) if a), None)
            if pivot is None:
                return None
            inv = pow(reduced[pivot], q - 2, q)
            echelon.append((pivot, [a * inv % q for a in reduced]))
            known[x] = fx
            for y, fy in list(known.items()):
                for a, b, fa, fb in ((x, y, fx, fy), (y, x, fy, fx)):
                    image = tgt.mul(fa, fb)
                    hit = src.prod.get((a, b))
                    if hit is None:
                        if any(image):
                            return None
                        continue
                    c, z = hit
                    scaled = tuple(pow(c, q - 2, q) * w % q for w in image)
                    if z in known:
                        if known[z] != scaled:
                            return None
                    else:
                        queue.append((z, scaled))
        return known, echelon

    def accepted(f) -> bool:
        """Graded, of full rank and multiplicative on generators x basis."""
        if len(f) != src.dim:
            return False
        graded = all(
            not x or tgt.degree[i] == src.degree[b] for b, fb in f.items() for i, x in enumerate(fb)
        )
        zero = (0,) * tgt.dim
        return graded and all(
            tgt.mul(f[s], f[b])
            == (zero if hit is None else tuple(hit[0] * x % q for x in f[hit[1]]))
            for s in gens
            for b in range(src.dim)
            for hit in [src.prod.get((s, b))]
        )

    def extend(known, echelon, k):
        if k == len(gens):
            return known if accepted(known) else None
        s = gens[k]
        if s in known:
            return extend(known, echelon, k + 1)
        for v in candidates(s, known):
            state = close(known, echelon, s, v)
            found = state and extend(*state, k + 1)
            if found:
                return found
        return None

    return extend({}, [], 0)
