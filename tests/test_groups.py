import itertools
from math import prod
from unittest import mock

import pytest
from conftest import NONASSOC_LOOP, compose, invert_perm, make_sym

import flagiso.cocycles
import flagiso.groups

from flagiso import (
    BudgetExceeded,
    Group,
    GroupElem,
    GroupMismatch,
    InvalidInput,
    Subgroup,
    build_abelian,
    cohomologous,
    find_isomorphisms,
    left_coset,
    make_presentation,
    pauli,
    subgroup_closure,
    trivial_cocycle,
    trivial_division,
    validate_table,
)
from flagiso.config import GROUP_ORDER_CAP, ISO_SEARCH_CAP

# -- oracles -----------------------------------------------------------------


def abelian_order_from_coords(coords, factors):
    """Element order in a direct product, from number theory, not the table."""
    from math import gcd, lcm

    return lcm(*(f // gcd(f, c) for c, f in zip(coords, factors))) if coords else 1


def isos_by_bijections(g1, g2):
    """Every isomorphism g1 -> g2, by testing all bijections."""
    n = g1.size
    out = []
    for perm in itertools.permutations(range(n)):
        if all(
            perm[g1.mul(a, b)] == g2.mul(perm[a], perm[b])
            for a in range(n)
            for b in range(n)
        ):
            out.append(dict(enumerate(perm)))
    return out


# -- construction and validation ----------------------------------------------


def test_build_abelian_z6():
    g = build_abelian([6])
    assert g.size == 6
    assert g.names == ("(0)", "(1)", "(2)", "(3)", "(4)", "(5)")
    assert g.mul(4, 5) == 3
    assert g.identity == 0
    assert g.inv(2) == 4


def test_build_abelian_mixed_radix():
    g = build_abelian([2, 3])
    assert g.size == 6
    # last coordinate varies fastest
    assert g.names[:3] == ("(0,0)", "(0,1)", "(0,2)")
    a = g.elem_by_name("(1,2)")
    b = g.elem_by_name("(1,1)")
    assert g.name_of(g.mul(a.index, b.index)) == "(0,0)"


@pytest.mark.parametrize("bad", [[], [1], [0, 2], [2, 1]])
def test_build_abelian_rejects_small_factors(bad):
    with pytest.raises(InvalidInput) as ei:
        build_abelian(bad)
    assert ei.value.code == "invalid-input"
    assert str(ei.value) == f"every factor must be at least 2, got {bad}"


@pytest.mark.parametrize(
    "bad, message",
    [
        (["a"], "every factor must be an integer, got ['a']"),
        ([2.5], "every factor must be an integer, got [2.5]"),
        ([True, 3], "every factor must be an integer, got [True, 3]"),
        ([2, None], "every factor must be an integer, got [2, None]"),
        ([2] * 15 + [1], f"every factor must be at least 2, got {[2] * 15 + [1]}"),
        ([2] * 16 + [1], "every factor must be at least 2, got 1 at position 16 of 17"),
        ([2] * 20 + ["x"] + [1], "every factor must be an integer, got 'x' at position 20 of 22"),
        ([2] * 400_000 + [1], "every factor must be at least 2, got 1 at position 400000 of 400001"),
        ([10**100, 1], "every factor must be at least 2, got 1 at position 1 of 2"),
        (
            ["x" * 65],
            f"every factor must be an integer, got '{'x' * 63}... (67 characters) at position 0 of 1",
        ),
    ],
)
def test_build_abelian_rejects_hostile_factors(bad, message):
    """Non-integers and bools are refused as such; a list longer than 16, or with
    an entry whose repr passes 64 characters, is not echoed whole."""
    with pytest.raises(InvalidInput) as ei:
        build_abelian(bad)
    assert ei.value.code == "invalid-input"
    assert str(ei.value) == message


def test_validate_table_order_one():
    g = validate_table([[0]])
    assert g.size == 1 and g.identity == 0


def test_validate_table_rejects_non_square():
    with pytest.raises(InvalidInput) as ei:
        validate_table([[0, 1], [1]])
    assert ei.value.code == "non-latin"


def test_validate_table_rejects_empty():
    with pytest.raises(InvalidInput) as ei:
        validate_table([])
    assert ei.value.code == "non-latin"
    assert str(ei.value) == "empty table"


def test_validate_table_rejects_bad_row():
    with pytest.raises(InvalidInput) as ei:
        validate_table([[0, 0], [1, 1]])
    assert ei.value.code == "non-latin"


def test_validate_table_rejects_bad_column():
    # every row is a permutation, but column 0 holds 0 twice
    with pytest.raises(InvalidInput) as ei:
        validate_table([[0, 1, 2], [0, 2, 1], [2, 1, 0]])
    assert ei.value.code == "non-latin"
    assert str(ei.value) == "column 0 is not a permutation"


def test_validate_table_rejects_no_identity():
    # rows and columns are permutations but no row acts as two-sided identity
    with pytest.raises(InvalidInput) as ei:
        validate_table([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    assert ei.value.code == "no-identity"


def test_validate_table_rejects_non_associative():
    with pytest.raises(InvalidInput) as ei:
        validate_table(NONASSOC_LOOP)
    assert ei.value.code == "non-associative"
    assert str(ei.value) == "not associative at triple (1,1,2)"
    t = NONASSOC_LOOP
    assert t[t[1][1]][2] != t[1][t[1][2]]


def test_validate_table_rejects_a_failure_led_by_the_second_generator_only():
    """A loop of order 6 whose greedy generators are 1 and 2: every triple
    (a, 1, c) associates, and (2, 2, 4) does not, so Light's test must check
    each generator, not the first alone."""
    loop = [
        [0, 1, 2, 3, 4, 5],
        [1, 0, 3, 2, 5, 4],
        [2, 3, 4, 5, 0, 1],
        [3, 2, 5, 4, 1, 0],
        [4, 5, 0, 1, 3, 2],
        [5, 4, 1, 0, 2, 3],
    ]
    assert all(loop[loop[a][1]][c] == loop[a][loop[1][c]] for a in range(6) for c in range(6))
    with pytest.raises(InvalidInput) as ei:
        validate_table(loop)
    assert ei.value.code == "non-associative"
    assert str(ei.value) == "not associative at triple (2,2,4)"


UP_TO_THE_CAP = [[256], [2] * 8, [4] * 4, [2, 4, 8], "S4", "S5"]


@pytest.mark.parametrize("source", UP_TO_THE_CAP, ids=str)
def test_table_check_generators_stay_logarithmic(source):
    """Light's test costs |S|*|G|^2 lookups: |S| <= log2|G| keeps it off the cubic path."""
    g = make_sym(int(source[1]))[0] if isinstance(source, str) else build_abelian(source)
    gens = flagiso.groups._closure(g.table, g.identity, g.elements())[0]
    assert len(gens) <= g.size.bit_length() - 1
    reached, frontier = {g.identity}, [g.identity]
    while frontier:
        x = frontier.pop()
        for y in (g.mul(x, s) for s in gens):
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    assert reached == set(g.elements())


def abelian_by_formula(factors):
    """Z_f1 x ... x Z_fk entry by entry, decoding both coordinate vectors of each product."""

    def decode(i):
        coords = []
        for f in reversed(factors):
            coords.append(i % f)
            i //= f
        return tuple(reversed(coords))

    def encode(coords):
        i = 0
        for c, f in zip(coords, factors):
            i = i * f + c
        return i

    size = prod(factors)
    table = [
        [encode([(x + y) % f for x, y, f in zip(decode(a), decode(b), factors)]) for b in range(size)]
        for a in range(size)
    ]
    names = ["(" + ",".join(str(c) for c in decode(i)) + ")" for i in range(size)]
    return table, names


@pytest.mark.parametrize("factors", [[2], [6], [2, 4], [3, 3], [2, 2, 2], [256], [4, 4, 4, 4]])
def test_build_abelian_matches_the_coordinate_formula(factors):
    table, names = abelian_by_formula(factors)
    g = build_abelian(factors)
    assert g.table == tuple(map(tuple, table))
    assert g.names == tuple(names)


def test_validate_table_bad_names():
    with pytest.raises(InvalidInput):
        validate_table([[0, 1], [1, 0]], names=["x"])
    with pytest.raises(InvalidInput):
        validate_table([[0, 1], [1, 0]], names=["x", "x"])
    # names are compared as the strings they become
    with pytest.raises(InvalidInput) as ei:
        Group([[0, 1], [1, 0]], [1, "1"])
    assert (ei.value.code, str(ei.value)) == ("bad-names", "element names must be distinct")


# -- arithmetic -----------------------------------------------------------------


def test_orders_against_coordinate_oracle():
    factors = [2, 4]
    g = build_abelian(factors)
    for i in g.elements():
        coords = tuple(int(c) for c in g.name_of(i).strip("()").split(","))
        assert g.order_of(i) == abelian_order_from_coords(coords, factors)


def test_s3_conjugation_matches_permutation_model():
    g, perms, idx = make_sym(3)
    t12 = idx[(1, 0, 2)]
    t13 = idx[(2, 1, 0)]
    t23 = idx[(0, 2, 1)]
    assert g.conj(t12, t13) == t23  # (13)^-1 (12) (13) = (23)
    for a in g.elements():
        for x in g.elements():
            want = compose(compose(invert_perm(perms[x]), perms[a]), perms[x])
            assert g.conj(a, x) == idx[want]


def test_power_and_inverse():
    g, perms, idx = make_sym(3)
    for a in g.elements():
        assert g.mul(a, g.inv(a)) == g.identity
        acc = g.identity
        for k in range(7):
            assert g.power(a, k) == acc
            acc = g.mul(acc, a)
        assert g.power(a, -1) == g.inv(a)


def test_group_equality_is_table_equality():
    z2 = build_abelian([2])
    same = validate_table([[0, 1], [1, 0]], names=["e", "a"])
    assert z2 == same  # names are labels only
    assert hash(z2) == hash(same)
    assert z2 != validate_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def test_equal_groups_share_one_coboundary_system():
    """The hash, computed once, is the table's; cohomologous on equal supports of
    equal groups from different sources builds one coboundary system, whose
    rows are diagonalized once."""
    z3sq = build_abelian([3, 3])
    same = validate_table([list(row) for row in z3sq.table])
    assert same is not z3sq and hash(same) == hash(z3sq) == hash(z3sq.table)
    system = flagiso.cocycles._corrector_system
    system.cache_clear()
    with mock.patch.object(
        flagiso.cocycles, "_diagonalize", wraps=flagiso.cocycles._diagonalize
    ) as eliminated:
        for grp in (z3sq, same):
            d = pauli(3, grp, [1, 3])
            assert cohomologous(d.cocycle, trivial_cocycle(d.support, 3)) is None
    assert (system.cache_info().misses, system.cache_info().hits) == (1, 1)
    assert eliminated.call_count == 1


def test_equal_supports_hash_once_and_share_one_corrector_system():
    """A support's hash is (group, members)'s, computed once on construction:
    equal supports of equal groups from different sources hit one entry of the
    per-(support, modulus) system cache, and no lookup rehashes a group table."""
    z3sq = build_abelian([3, 3])
    same = validate_table([list(row) for row in z3sq.table])
    full = Subgroup(z3sq, tuple(z3sq.elements()))
    closed = subgroup_closure(same, [1, 3])
    assert closed == full and hash(closed) == hash(full) == hash((z3sq, full.members))
    system = flagiso.cocycles._corrector_system
    system.cache_clear()
    with mock.patch.object(Group, "__hash__", side_effect=AssertionError("group rehashed")):
        first = system(full, 3)
        again = system(closed, 3)
        assert hash(closed) == hash(full)
    assert again is first
    assert system.cache_info().hits == 1 and system.cache_info().currsize == 1


def test_group_elem_ops_and_mismatch():
    z2 = build_abelian([2])
    z3 = build_abelian([3])
    a = z2.elem_by_name("(1)")
    assert a == GroupElem(z2, 1) and a.index == 1
    assert a != z3.elem_by_name("(1)")  # the record carries its group
    with pytest.raises(GroupMismatch):
        make_presentation(trivial_division(z3), (1,), [a])
    with pytest.raises(InvalidInput):
        z2.elem_by_name("nope")


# -- size cap ----------------------------------------------------------------------


def test_group_order_cap_refuses_before_construction(monkeypatch):
    assert GROUP_ORDER_CAP == 256
    with pytest.raises(BudgetExceeded) as ei:
        build_abelian([16, 17])  # order 272
    assert ei.value.code == "budget-exceeded"
    # an order of up to 64 bits is printed in full, a wider one is not
    with pytest.raises(BudgetExceeded, match="^group order 1024 exceeds"):
        build_abelian([2] * 10)
    with pytest.raises(BudgetExceeded, match=f"^group order {2**64 - 1} exceeds"):
        build_abelian([3, 5, 17, 257, 641, 65537, 6700417])
    with pytest.raises(BudgetExceeded, match="^group order of more than 64 bits exceeds"):
        build_abelian([2] * 64 + [3])
    # refused before the table is checked: this one is not even a Latin square
    with pytest.raises(BudgetExceeded):
        Group([[0] * 257] * 257)
    # the cap itself is allowed (a lowered cap keeps the check cheap)
    monkeypatch.setattr(flagiso.groups, "GROUP_ORDER_CAP", 6)
    assert build_abelian([6]).size == 6
    with pytest.raises(BudgetExceeded):
        build_abelian([7])


def test_table_entries_must_not_be_booleans():
    with pytest.raises(InvalidInput) as ei:
        validate_table([[False, True], [True, False]])
    assert ei.value.code == "non-latin"


def test_table_entries_may_be_int_subclasses():
    class Label(int):
        pass

    g = validate_table([[Label(0), Label(1)], [Label(1), Label(0)]])
    assert g.identity == 0 and g.mul(1, 1) == 0


# -- subgroups -------------------------------------------------------------------


def test_subgroup_closure_klein():
    g = build_abelian([2, 2])
    assert subgroup_closure(g, [1]).members == (0, 1)
    assert subgroup_closure(g, [1, 2]).members == (0, 1, 2, 3)
    assert subgroup_closure(g, []).members == (g.identity,)



@pytest.mark.parametrize(
    "seed, message",
    [
        ([2.0], "cannot interpret 2.0 as a group element"),
        (["a"], "cannot interpret 'a' as a group element"),
        ([None], "cannot interpret None as a group element"),
        ([1, 2.0], "cannot interpret 2.0 as a group element"),
        ([True], "cannot interpret True as a group element"),
        ([4], "element index 4 out of range"),
        ([1, -1], "element index -1 out of range"),
        ([10**5000], "element index an int of 16610 bits out of range"),
        ([[10**5000]], "cannot interpret a list too long to show as a group element"),
    ],
)
def test_subgroup_closure_checks_every_seed(seed, message):
    with pytest.raises(InvalidInput) as ei:
        subgroup_closure(build_abelian([4]), seed)
    assert ei.value.code == "bad-element"
    assert str(ei.value) == message


def test_subgroup_closure_takes_any_iterable():
    g = build_abelian([4])
    assert subgroup_closure(g, iter([2, 2])).members == (0, 2)


def test_subgroup_validation():
    g = build_abelian([4])
    with pytest.raises(InvalidInput):
        Subgroup(g, (0, 1))  # not closed
    with pytest.raises(InvalidInput):
        Subgroup(g, (2,))  # no identity
    sub = Subgroup(g, (2, 0))
    assert sub.members == (0, 2)
    assert 2 in sub.members and 1 not in sub.members
    assert sub.index == {0: 0, 2: 1}


@pytest.mark.parametrize(
    "order, member", [(4, 2.0), (4, "a"), (4, None), (4, [2]), (2, True)], ids=repr
)
def test_subgroup_members_must_be_element_indices(order, member):
    with pytest.raises(InvalidInput, match="as a group element") as err:
        Subgroup(build_abelian([order]), (0, member))
    assert err.value.code == "bad-element"


def test_left_coset_z4():
    g = build_abelian([4])
    h = Subgroup(g, (0, 2))
    assert left_coset(0, h) == (0, 2)
    assert left_coset(1, h) == (1, 3)
    assert left_coset(3, h) == (1, 3)  # same coset, same canonical rep 1
    assert h.coset_rep == (0, 1, 0, 1)


def test_subgroup_mul_table_multiplies_by_position():
    """mul_table[x][y] is the position of the product of members x and y, on a
    non-abelian support where the order of the factors matters."""
    g, perms, idx = make_sym(3)
    sub = Subgroup(g, tuple(g.elements()))
    members = sub.members
    assert sub.mul_table == tuple(
        tuple(members.index(idx[compose(perms[a], perms[b])]) for b in members) for a in members
    )
    assert sub.mul_table is sub.mul_table
    assert Subgroup(build_abelian([4]), (0, 2)).mul_table == ((0, 1), (1, 0))


# -- isomorphism search ------------------------------------------------------------


def test_s3_automorphisms_against_bijection_oracle():
    g, _, _ = make_sym(3)
    want = {tuple(sorted(f.items())) for f in isos_by_bijections(g, g)}
    assert len(want) == 6
    got = {tuple(sorted(f.items())) for f in find_isomorphisms(g, g)}
    assert got == want


def test_z4_vs_klein_no_isomorphism():
    assert find_isomorphisms(build_abelian([4]), build_abelian([2, 2])) == []


def test_z4_automorphisms():
    g = build_abelian([4])
    want = {tuple(sorted(f.items())) for f in isos_by_bijections(g, g)}
    assert len(want) == 2  # identity and inversion
    got = {tuple(sorted(f.items())) for f in find_isomorphisms(g, g)}
    assert got == want


def test_subgroup_carrier_isomorphism():
    z4 = build_abelian([4])
    z2 = build_abelian([2])
    sub = Subgroup(z4, (0, 2))
    maps = find_isomorphisms(sub, z2)
    assert maps == [{0: 0, 2: 1}]
    back = find_isomorphisms(z2, sub)
    assert back == [{0: 0, 1: 2}]


def test_isomorphism_search_budget():
    """The search runs up to order ISO_SEARCH_CAP = 16 and refuses a larger
    domain or codomain before comparing orders."""
    small, big = build_abelian([16]), build_abelian([17])
    assert ISO_SEARCH_CAP == 16
    assert len(find_isomorphisms(small, small)) == 8  # the units of Z16
    for h1, h2 in ((big, big), (big, small), (small, big)):
        with pytest.raises(BudgetExceeded, match="^isomorphism search capped at order 16$"):
            find_isomorphisms(h1, h2)
