"""Support-wide identity checks against their all-triples, all-pairs and
all-products oracles.

validate_cocycle checks the cocycle identity on the triples whose first
entry is a generator of the support, transport checks its map on the pairs
whose second entry is a generator, Subgroup decides closure by one closure
walk and central on the generators, and cohomologous and is_corrector check
the corrector law on the pairs whose second entry is a generator, the rows
cohomologous solves.  A failing cocycle is named after row-checking only the
leads outside the subgroup that the passing leads generate.  Each property
asserts the same verdict, the same values, and the same error code and
message as the oracle that checks everything (for cohomologous, a corrector
that differs from the oracle's by a homomorphism), on every subgroup of
Z2 x Z2, Z4, Z2 x Z4, Z3 x Z3, Z2 x Z2 x Z2, S3, D8, S4 and Z4 x S3.  Cocycles are
bilinear forms pulled back along a homomorphism onto an abelian group
(coordinates, the sign of a permutation, D8 onto Z2 x Z2), twisted by
random coboundaries, then corrupted in one entry; other tables keep the
identity on the triples led by the powers of one generator only.  Maps are
isomorphisms, conjugations, isomorphisms with two images swapped,
bijections that respect one generator only, random bijections and random
maps; sets are subgroups, subgroups with an element added or removed, and
random subsets.  Runs are derandomized and keep no example database.
"""

import itertools
import math
import random

import pytest
from conftest import (
    assert_solves_as,
    cohomologous_by_elimination,
    dihedral_8,
    is_corrector_by_pairs,
    make_sym,
    subgroup_members_by_products,
    transport_by_pairs,
    validate_cocycle_by_triples,
    z2_bilinear,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import flagiso.cocycles
from flagiso import (
    Cocycle,
    Corrector,
    InvalidInput,
    Group,
    Subgroup,
    build_abelian,
    cohomologous,
    find_isomorphisms,
    is_corrector,
    subgroup_closure,
    transport,
    trivial_cocycle,
    validate_cocycle,
)
from flagiso.config import ISO_SEARCH_CAP

SETTINGS = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def coordinates(factors):
    """Element index -> coordinate vector of build_abelian(factors), the last fastest."""

    def coords(x):
        out = []
        for f in reversed(factors):
            x, r = divmod(x, f)
            out.append(r)
        return tuple(reversed(out))

    return coords


def sign(perms):
    """Element index -> (parity of the permutation,), a homomorphism onto Z2."""
    return lambda x: (sum(p > q for p, q in itertools.combinations(perms[x], 2)) % 2,)


def direct_product(g1, g2):
    """g1 x g2 with (a, b) at index a |g2| + b."""
    n = g2.size
    size = g1.size * n
    table = [
        [g1.mul(a // n, c // n) * n + g2.mul(a % n, c % n) for c in range(size)]
        for a in range(size)
    ]
    return Group(table, [f"{x}.{y}" for x in g1.names for y in g2.names])


# each group with a homomorphism onto Z_f1 x ... x Z_fk (as coordinate vectors)
S3, S3_PERMS, _ = make_sym(3)
S4, S4_PERMS, _ = make_sym(4)
GROUPS = [
    *((build_abelian(f), f, coordinates(f)) for f in ([2, 2], [4], [2, 4], [3, 3], [2, 2, 2])),
    (S3, [2], sign(S3_PERMS)),
    # r^i s^j is 2i + j, and r^i s^j -> (i mod 2, j) is a homomorphism onto Z2 x Z2
    (dihedral_8(), [2, 2], lambda x: (x // 2 % 2, x % 2)),
    (S4, [2], sign(S4_PERMS)),
    # Z4 x S3: a non-central subgroup Z4 x <(01)> whose first generator is central
    (direct_product(build_abelian([4]), S3), [4, 2], lambda x: (x // 6, sign(S3_PERMS)(x % 6)[0])),
]


def subgroups(grp):
    """Every subgroup generated by at most two elements: all of them, for these groups."""
    return sorted(
        {subgroup_closure(grp, pair) for pair in itertools.product(grp.elements(), repeat=2)},
        key=lambda sub: sub.members,
    )


SUPPORTS = [(sub, factors, phi) for grp, factors, phi in GROUPS for sub in subgroups(grp)]
# half the draws from the supports of order 4 or more, which have room for two generators
SUPPORT_CASES = st.one_of(
    st.sampled_from([case for case in SUPPORTS if len(case[0].members) >= 4]),
    st.sampled_from(SUPPORTS),
)


def outcome(f, *args):
    """What f returns, or the type, code and message of the InvalidInput it raises."""
    try:
        return "ok", f(*args)
    except InvalidInput as e:
        return type(e), e.code, str(e)


def cocycle_outcome(f, *args):
    got = outcome(f, *args)
    return ("ok", got[1].support, got[1].order, got[1].values) if got[0] == "ok" else got


@st.composite
def cocycle_tables(draw, supports=SUPPORT_CASES):
    """(support, order, table) of a bilinear form pulled back along phi, in mu_order
    with order a multiple of the factors' lcm, times the coboundary of a random u."""
    sub, factors, phi = draw(supports)
    order = math.lcm(*factors) * draw(st.sampled_from([1, 1, 2, 3]))
    k = len(factors)
    coeff = [[draw(st.integers(0, order - 1)) for _ in range(k)] for _ in range(k)]
    weight = [
        [coeff[i][j] * (order // math.gcd(factors[i], factors[j])) for j in range(k)]
        for i in range(k)
    ]
    e = sub.index[sub.group.identity]
    u = [0 if x == e else draw(st.integers(0, order - 1)) for x in range(len(sub.members))]
    vecs = [phi(h) for h in sub.members]
    mul = sub.mul_table
    table = [
        [
            sum(weight[i][j] * va[i] * vb[j] for i in range(k) for j in range(k))
            + u[a]
            + u[b]
            - u[mul[a][b]]
            for b, vb in enumerate(vecs)
        ]
        for a, va in enumerate(vecs)
    ]
    return sub, order, table


@st.composite
def nucleus_tables(draw):
    """(support, order, table) of sigma(b, c) = tau(<s>b, c) for a generator s and
    a random tau on left cosets of <s> and members, 0 on <s> and at c = e: the
    identity holds on every triple led by a power of s, and mostly fails elsewhere."""
    sub, _, _ = draw(SUPPORT_CASES)
    grp, members = sub.group, sub.members
    if not sub.generators:
        return sub, 1, [[0]]
    s = draw(st.sampled_from(sub.generators))
    powers = [grp.power(s, k) for k in range(grp.order_of(s))]
    coset = [min(grp.mul(p, b) for p in powers) for b in members]
    inner = coset[sub.index[grp.identity]]
    order = draw(st.integers(2, 6))
    tau = {
        (x, c): 0 if x == inner or c == grp.identity else draw(st.integers(0, order - 1))
        for x in sorted(set(coset))
        for c in members
    }
    return sub, order, [[tau[x, c] for c in members] for x in coset]


@st.composite
def corrupted_tables(draw):
    """A cocycle table with one entry moved by a nonzero amount mod its order,
    mostly off the identity's row and column, where normalization catches it."""
    sub, order, table = draw(cocycle_tables())
    n = len(sub.members)
    if order == 1:
        order = draw(st.integers(2, 4))
    e = sub.index[sub.group.identity]
    pick = st.sampled_from([x for x in range(n) if x != e] or [e])
    if not draw(st.integers(0, 4)):
        pick = st.integers(0, n - 1)
    a, b = draw(pick), draw(pick)
    table[a][b] += draw(st.integers(1, order - 1))
    return sub, order, table


@SETTINGS
@given(st.one_of(cocycle_tables(), corrupted_tables(), nucleus_tables()))
def test_validate_cocycle_decides_as_every_triple(case):
    assert cocycle_outcome(validate_cocycle, *case) == cocycle_outcome(
        validate_cocycle_by_triples, *case
    )


@pytest.mark.parametrize("order", [-1, 0, 1, 2, 6])
def test_trivial_cocycle_is_the_validated_zero_table(order):
    for sub, _, _ in SUPPORTS:
        n = len(sub.members)
        zeros = [[0] * n for _ in range(n)]
        assert cocycle_outcome(trivial_cocycle, sub, order) == cocycle_outcome(
            validate_cocycle_by_triples, sub, order, zeros
        )


def test_a_valid_cocycle_on_z2_to_the_8_never_scans_every_triple(monkeypatch):
    """A bilinear cocycle on Z2^8 (|H| = 256) is accepted on its 8 * 256^2
    generator triples; a corrupted table on Z2^3 enters the full scan once."""
    scans = []
    scan = flagiso.cocycles._raise_first_failing_triple
    monkeypatch.setattr(
        flagiso.cocycles, "_raise_first_failing_triple", lambda coc: scans.append(coc) or scan(coc)
    )
    sub, table = z2_bilinear(8)
    coc = validate_cocycle(sub, 2, table)
    assert scans == []
    assert coc.values == tuple(map(tuple, table))
    sub, table = z2_bilinear(3)
    table[3][5] += 1
    with pytest.raises(InvalidInput) as err:
        validate_cocycle(sub, 2, table)
    assert len(scans) == 1
    want = outcome(validate_cocycle_by_triples, sub, 2, table)
    assert (type(err.value), err.value.code, str(err.value)) == want


SUPPORTS_BY_ORDER = {
    n: [sub for sub, _, _ in SUPPORTS if len(sub.members) == n]
    for n in {len(sub.members) for sub, _, _ in SUPPORTS}
}


@st.composite
def equivariant_bijections(draw, sub, s):
    """A bijection beta of sub with beta(a s) = beta(a) s for every member a:
    it fixes <s> and sends each other coset a<s> onto a coset, rotated."""
    grp = sub.group
    powers = [grp.power(s, k) for k in range(grp.order_of(s))]
    cosets = {tuple(sorted(grp.mul(a, p) for p in powers)) for a in sub.members}
    # each coset in the order m, m s, m s^2, ... from its least element m
    rows = [[grp.mul(c[0], p) for p in powers] for c in sorted(cosets) if grp.identity not in c]
    beta = dict(zip(powers, powers))
    for row, image in zip(rows, draw(st.permutations(rows))):
        k = draw(st.integers(0, len(powers) - 1))
        beta.update((x, image[(j + k) % len(powers)]) for j, x in enumerate(row))
    return beta


@st.composite
def transport_cases(draw):
    """A cocycle, a map from its support and a target support of the same order:
    an isomorphism, a conjugation, an isomorphism with two images swapped, a
    bijection that respects one generator followed by a conjugation (a
    homomorphism on the pairs led by that generator), a random bijection, or
    a random map that need not be onto."""
    sub, order, table = draw(cocycle_tables())
    sigma = validate_cocycle(sub, order, table)
    kind = draw(st.sampled_from(["iso", "conj", "swapped", "equivariant", "bijection", "map"]))
    grp, src = sub.group, sub.members
    if kind == "equivariant" and sub.generators:
        beta = draw(equivariant_bijections(sub, draw(st.sampled_from(sub.generators))))
        g = draw(st.sampled_from(list(grp.elements())))
        alpha = {h: grp.conj(beta[h], g) for h in src}
        return sigma, alpha, Subgroup(grp, tuple(alpha.values()))
    if kind == "conj":
        g = draw(st.sampled_from(list(grp.elements())))
        alpha = {h: grp.conj(h, g) for h in src}
        return sigma, alpha, Subgroup(grp, tuple(alpha.values()))
    target = draw(st.sampled_from(SUPPORTS_BY_ORDER[len(src)]))
    if kind in ("iso", "swapped") and len(src) <= ISO_SEARCH_CAP:
        isos = find_isomorphisms(sub, target)
        if isos:
            alpha = dict(draw(st.sampled_from(isos)))
            if kind == "swapped" and len(src) > 1:
                a, b = draw(st.permutations(src))[:2]
                alpha[a], alpha[b] = alpha[b], alpha[a]
            return sigma, alpha, target
    if kind == "map":
        images = [draw(st.sampled_from(target.members)) for _ in src]
    else:
        images = draw(st.permutations(target.members))
    return sigma, dict(zip(src, images)), target


@SETTINGS
@given(transport_cases())
def test_transport_decides_as_every_pair(case):
    assert cocycle_outcome(transport, *case) == cocycle_outcome(transport_by_pairs, *case)


@st.composite
def member_lists(draw):
    """A group and a list of elements, in any order with repeats: a subgroup,
    a subgroup with one element added or removed, or a random subset, which
    mostly holds the identity."""
    grp = draw(st.sampled_from([grp for grp, _, _ in GROUPS]))
    elems = list(grp.elements())
    kind = draw(st.sampled_from(["subgroup", "added", "removed", "random"]))
    if kind == "random":
        members = draw(st.lists(st.sampled_from(elems), min_size=1))
        members += [grp.identity] if draw(st.integers(0, 3)) else []
    else:
        seed = draw(st.lists(st.sampled_from(elems), max_size=2))
        members = list(subgroup_closure(grp, seed).members)
        if kind == "added":
            members.append(draw(st.sampled_from(elems)))
        elif kind == "removed":
            members.remove(draw(st.sampled_from(members)))
    members += draw(st.lists(st.sampled_from(members), max_size=3)) if members else []
    return grp, draw(st.permutations(members))


@SETTINGS
@given(member_lists())
def test_subgroup_decides_closure_as_every_product(case):
    grp, members = case
    got = outcome(Subgroup, grp, tuple(members))
    want = outcome(subgroup_members_by_products, grp, members)
    assert (("ok", got[1].members) if got[0] == "ok" else got) == want
    if got[0] == "ok":
        tbl = grp.table
        assert got[1].central == all(
            tbl[h][x] == tbl[x][h] for h in got[1].members for x in grp.elements()
        )


@pytest.mark.parametrize("grp", [grp for grp, _, _ in GROUPS], ids=lambda grp: grp.name_of(1))
def test_central_is_decided_as_on_every_member(grp):
    tbl = grp.table
    for sub in subgroups(grp):
        assert sub.central == all(
            tbl[h][x] == tbl[x][h] for h in sub.members for x in grp.elements()
        ), sub.members


@st.composite
def cocycle_pairs(draw):
    """Two cocycles on one support, in either order: a cocycle and a twist of
    it by a random coboundary, in mu_order or mu_2order, or two drawn
    independently (cohomologous or not)."""
    sub, order, table = draw(cocycle_tables())
    sigma = validate_cocycle(sub, order, table)
    if draw(st.booleans()):
        scale = draw(st.sampled_from([1, 2]))
        e = sub.index[sub.group.identity]
        u = [0 if x == e else draw(st.integers(0, scale * order - 1)) for x in range(len(table))]
        mul = sub.mul_table
        twisted = [
            [scale * v + u[a] + u[b] - u[mul[a][b]] for b, v in enumerate(row)]
            for a, row in enumerate(table)
        ]
        tau = validate_cocycle(sub, scale * order, twisted)
    else:
        same = st.sampled_from([case for case in SUPPORTS if case[0] == sub])
        tau = validate_cocycle(*draw(cocycle_tables(same)))
    return tuple(draw(st.permutations([sigma, tau])))


@SETTINGS
@given(cocycle_pairs())
def test_cohomologous_decides_as_the_law_on_every_pair(pair):
    """The solve on the generator rows decides as the full system over every
    non-identity pair, and its corrector keeps the law on every pair and
    differs from the full system's by a homomorphism H -> Z_L."""
    assert_solves_as(cohomologous(*pair), cohomologous_by_elimination(*pair), pair)


@pytest.mark.parametrize("modulus", [2, 12])
def test_a_corrector_system_has_one_row_per_generator_pair(monkeypatch, modulus):
    """The system cohomologous diagonalizes has the rows (a, x), a != e and x
    a generator: r (|H| - 1) rows over |H| - 1 columns, on every support."""
    shapes = []

    def spy(rows, L):
        shapes.append((len(rows), {len(row) for row in rows}))
        return diagonalize(rows, L)

    diagonalize = flagiso.cocycles._diagonalize
    monkeypatch.setattr(flagiso.cocycles, "_diagonalize", spy)
    for sub, _, _ in SUPPORTS:
        n, gens = len(sub.members), [sub.index[x] for x in sub.generators]
        e = sub.index[sub.group.identity]
        system = flagiso.cocycles._corrector_system.__wrapped__(sub, modulus)
        assert system.pairs == tuple((a, x) for a in range(n) if a != e for x in gens)
        assert shapes.pop() == (len(gens) * (n - 1), {n - 1} if len(gens) else set())


class ReadRow(tuple):
    """A cocycle table row that records the (row, column) of each entry read."""

    def __new__(cls, row, a, reads):
        self = super().__new__(cls, row)
        self.a, self.reads = a, reads
        return self

    def __getitem__(self, x):
        self.reads.append((self.a, x))
        return tuple.__getitem__(self, x)


@pytest.mark.parametrize("modulus", [2, 12])
def test_the_corrector_law_is_checked_on_every_generator_pair(modulus):
    """The law that is_corrector and cohomologous share reads sigma at the
    pairs (a, x) by position, each once, for every member a and every
    generator x of the support."""
    for sub, _, _ in SUPPORTS:
        n = len(sub.members)
        reads = []
        zero = trivial_cocycle(sub, modulus)
        sigma = Cocycle(sub, modulus, tuple(ReadRow(row, a, reads) for a, row in enumerate(zero.values)))
        assert is_corrector(Corrector(sub, modulus, (0,) * n), sigma, zero)
        gens = [sub.index[x] for x in sub.generators]
        assert sorted(reads) == sorted((a, x) for a in range(n) for x in gens)


@st.composite
def corrector_cases(draw):
    """A map mu and two cocycles on its support: the corrector cohomologous
    finds, in its order or a multiple, kept or changed at one member (the
    identity among them), or random exponents in an order of 1-12."""
    sigma, tau = draw(cocycle_pairs())
    sub = sigma.support
    n = len(sub.members)
    mu = cohomologous(sigma, tau)
    if mu is not None and draw(st.booleans()):
        scale = draw(st.sampled_from([1, 2, 3]))
        order = scale * mu.order
        exps = [scale * v for v in mu.exps]
        if order > 1 and draw(st.booleans()):
            exps[draw(st.integers(0, n - 1))] += draw(st.integers(1, order - 1))
    else:
        order = draw(st.integers(1, 12))
        exps = [draw(st.integers(0, order - 1)) for _ in range(n)]
    return Corrector(sub, order, tuple(exps)), sigma, tau


@SETTINGS
@given(corrector_cases())
def test_is_corrector_decides_as_the_law_on_every_pair(case):
    assert is_corrector(*case) == is_corrector_by_pairs(*case)


def test_a_failing_cocycle_on_z2_to_the_8_is_named_after_few_leads(monkeypatch):
    """sigma(b, c) = t(c) for b outside N, the members whose top coordinate is
    0, and 0 on N: the leads in N keep the identity, and the scan names the
    oracle's triple after row-checking at most log2 |N| + 1 = 8 leads."""
    calls, start = [], []
    pair = flagiso.cocycles._failing_pair
    scan = flagiso.cocycles._raise_first_failing_triple
    monkeypatch.setattr(flagiso.cocycles, "_failing_pair", lambda *args: calls.append(args[3]) or pair(*args))
    monkeypatch.setattr(
        flagiso.cocycles, "_raise_first_failing_triple", lambda coc: start.append(len(calls)) or scan(coc)
    )
    grp = build_abelian([2] * 8)
    sub = Subgroup(grp, tuple(grp.elements()))
    rng = random.Random(1)
    t = [0] + [rng.randrange(2) for _ in range(255)]
    table = [[0 if a < 128 else t[c] for c in sub.members] for a in sub.members]
    with pytest.raises(InvalidInput) as err:
        validate_cocycle(sub, 2, table)
    leads = calls[start[0] :]
    assert len(start) == 1 and len(leads) <= 8 and leads[-1] == 128
    want = outcome(validate_cocycle_by_triples, sub, 2, table)
    assert (type(err.value), err.value.code, str(err.value)) == want
