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
realize_by_basis builds a fresh basis, degree by degree, and its index, as
the oracle for realize, which shares one basis and index per shape and
support; derive_mapping_by_basis computes a witness's map one basis element
at a time, as the oracle for the map derived one cell at a time.
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
and find_isomorphisms.  solve_congruences_by_elimination
eliminates every system from scratch, as the oracle for solve_congruences,
which diagonalizes each matrix once and replays it per right-hand side;
cohomologous_by_elimination builds the corrector system afresh and solves it
that way, as the oracle for cohomologous.  ACCEPTANCE_LINES
collects the acceptance suite's per-criterion verdict lines; they are printed
after the run, outside output capture.
"""

import itertools
from collections import Counter
from math import gcd, lcm, prod

from flagiso import (
    ISOMORPHIC,
    BasisElem,
    BlockShape,
    Classification,
    Corrector,
    FlagPresentation,
    GradedAlgebra,
    GradedDivisionAlgebra,
    GradedInvariants,
    GradingReport,
    Group,
    Subgroup,
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
    elimination itself instead of replaying a logged diagonalization.
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
