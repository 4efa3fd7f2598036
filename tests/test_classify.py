import dataclasses
import itertools
import types

import pytest
from conftest import classes_by_burnside, classify_by_tuples, count_classes_pairwise, make_sym

import flagiso.iso
import flagiso.tables
from flagiso import (
    BudgetExceeded,
    GradedDivisionAlgebra,
    Group,
    GroupMismatch,
    InvalidInput,
    build_abelian,
    canonical_form,
    classify,
    enumerate_classes,
    make_presentation,
    pauli,
    shift_conjugate,
    subgroup_closure,
    trivial_division,
    validate_cocycle,
)

# -- oracle: orbit enumeration by breadth-first closure ---------------------------


def orbits_by_brute(grp, blocks, division):
    """All degree-tuple orbits under in-block shuffles, entrywise support
    translations, and global right shifts.  Abelian groups only, where every
    shift preserves the division part on the nose."""
    assert all(grp.mul(a, b) == grp.mul(b, a) for a in grp.elements() for b in grp.elements())
    members = division.support.members
    n = sum(blocks)
    ranges = []
    start = 0
    for m in blocks:
        ranges.append(range(start, start + m))
        start += m
    perms = []
    for combo in itertools.product(*(itertools.permutations(r) for r in ranges)):
        perm = [0] * n
        for rng, pr in zip(ranges, combo):
            for dst, src in zip(rng, pr):
                perm[dst] = src
        perms.append(tuple(perm))

    seen: set[tuple[int, ...]] = set()
    orbits = []
    for t in itertools.product(range(grp.size), repeat=n):
        if t in seen:
            continue
        orbit: set[tuple[int, ...]] = set()
        frontier = [t]
        while frontier:
            cur = frontier.pop()
            if cur in orbit:
                continue
            orbit.add(cur)
            for perm in perms:
                frontier.append(tuple(cur[perm[i]] for i in range(n)))
            for g in grp.elements():
                frontier.append(tuple(grp.mul(x, g) for x in cur))
            for i in range(n):
                for h in members:
                    nxt = list(cur)
                    nxt[i] = grp.mul(cur[i], h)
                    frontier.append(tuple(nxt))
        seen |= orbit
        orbits.append(orbit)
    return orbits


def sign_division(grp, generator):
    sub = subgroup_closure(grp, [generator])
    return GradedDivisionAlgebra(validate_cocycle(sub, 2, [[0, 0], [0, 1]]))


def named_division(grp, kind):
    if kind == "trivial":
        return trivial_division(grp)
    if kind == "sign":
        return sign_division(grp, 2)
    return pauli(2, grp, [2, 1])


# -- frozen class tables ------------------------------------------------------------


def test_two_step_flags_over_z2():
    grp = build_abelian([2])
    cls = classify(grp, (1, 1), trivial_division(grp))
    assert cls.count == 2
    assert cls.representatives == ((0, 0), (0, 1))
    assert cls.orbit_sizes == (2, 2)
    assert cls.total == 4


def test_two_step_flags_over_z3():
    grp = build_abelian([3])
    cls = classify(grp, (1, 1), trivial_division(grp))
    assert cls.count == 3
    assert cls.representatives == ((0, 0), (0, 1), (0, 2))
    assert cls.orbit_sizes == (3, 3, 3)


def test_sign_division_collapses_cosets():
    grp = build_abelian([4])
    cls = classify(grp, (1, 1), sign_division(grp, 2))
    assert cls.count == 2
    assert cls.representatives == ((0, 0), (0, 1))
    assert cls.orbit_sizes == (8, 8)


def test_full_support_division_gives_one_class():
    grp = build_abelian([2, 2])
    cls = classify(grp, (1, 1), pauli(2, grp, [2, 1]))
    assert cls.count == 1
    assert cls.orbit_sizes == (16,)


# -- agreement with the brute orbit oracle ---------------------------------------


@pytest.mark.parametrize(
    "factors,blocks,div_kind",
    [
        ([2], (1, 1), "trivial"),
        ([3], (1, 1), "trivial"),
        ([2], (2, 1), "trivial"),
        ([4], (1, 1), "sign"),
        ([4], (2,), "sign"),
        ([2, 2], (1, 1), "pauli"),
    ],
)
def test_classify_matches_orbit_enumeration(factors, blocks, div_kind):
    grp = build_abelian(factors)
    d = named_division(grp, div_kind)
    want = orbits_by_brute(grp, blocks, d)
    cls = classify(grp, blocks, d)
    assert cls.count == len(want)
    assert sorted(cls.orbit_sizes) == sorted(len(o) for o in want)
    assert sum(cls.orbit_sizes) == cls.total == grp.size ** sum(blocks)
    assert classes_by_burnside(grp, blocks, d) == len(want)


# -- the tuple loop and Burnside's lemma as oracles ---------------------------------


@pytest.mark.parametrize(
    "factors,blocks,div_kind,count",
    [
        ([2], (1, 1), "trivial", 2),
        ([3], (1, 1), "trivial", 3),
        ([4], (1, 1), "sign", 2),
        ([2, 2], (1, 1), "pauli", 1),
    ],
)
def test_burnside_counts_the_frozen_tables(factors, blocks, div_kind, count):
    grp = build_abelian(factors)
    assert classes_by_burnside(grp, blocks, named_division(grp, div_kind)) == count


def workload_instances():
    """The benchmark's classify workload: (group, blocks, division, golden class count)."""
    s3, s4 = make_sym(3)[0], make_sym(4)[0]
    z4, z6, z8 = build_abelian([4]), build_abelian([6]), build_abelian([8])
    z24, z22 = build_abelian([2, 4]), build_abelian([2, 2])
    pz24 = pauli(2, z24, ["(1,0)", "(0,2)"])
    pz22 = pauli(2, z22, ["(1,0)", "(0,1)"])
    triv = trivial_division
    return [
        (z4, (2, 2, 2), triv(z4), 252),
        (s3, (1, 1, 1, 1, 1), triv(s3), 1296),
        (z24, (1, 1, 1, 1), pz24, 8),
        (z8, (2, 2), triv(z8), 164),
        (s4, (1, 1), triv(s4), 24),
        (z6, (1, 2), triv(z6), 21),
        (s3, (1, 1, 1), triv(s3), 36),
        (z22, (1, 1, 1), pz22, 1),
        (z24, (1, 1), pz24, 2),
        (z4, (1, 1, 1), triv(z4), 16),
    ]


@pytest.mark.parametrize("case", range(10))
def test_classify_matches_both_oracles_on_the_workload_instances(case):
    grp, blocks, d, count = workload_instances()[case]
    cls = classify(grp, blocks, d)
    want = classify_by_tuples(grp, blocks, d)
    assert cls.representatives == want.representatives
    assert cls.orbit_sizes == want.orbit_sizes
    assert cls.total == want.total
    assert cls.shifts == want.shifts
    assert cls.count == classes_by_burnside(grp, blocks, d) == count


def test_classify_visits_configurations_not_tuples(monkeypatch):
    """Z2 x Z4 over a support of order 4, shape (1,1,1,1): 4096 tuples, 16 configurations."""
    canonicalized, visited = [], []
    canonical = flagiso.iso.canonical_form
    product = itertools.product

    def counted_canonical_form(p):
        canonicalized.append(p.degrees)
        return canonical(p)

    def counted_product(*ranges):
        for config in product(*ranges):
            visited.append(config)
            yield config

    monkeypatch.setattr(flagiso.iso, "canonical_form", counted_canonical_form)
    # classify walks its configurations with itertools.product: count them in
    # the iso module's view of itertools alone
    counted = types.SimpleNamespace(**{**vars(itertools), "product": counted_product})
    monkeypatch.setattr(flagiso.iso, "itertools", counted)
    grp = build_abelian([2, 4])
    cls = classify(grp, (1, 1, 1, 1), pauli(2, grp, ["(1,0)", "(0,2)"]))
    assert (cls.total, cls.count) == (4096, 8)
    assert canonicalized == []
    assert len(visited) == 16


def test_classify_builds_one_table_per_block_size(monkeypatch):
    """Blocks (2,2,2) over Z4 share the size-2 table: its 10 multisets are weighed once."""
    weighed = []
    multinomial = flagiso.iso._multinomial

    def counted_multinomial(multiset):
        weighed.append(multiset)
        return multinomial(multiset)

    monkeypatch.setattr(flagiso.iso, "_multinomial", counted_multinomial)
    grp = build_abelian([4])
    assert classify(grp, (2, 2, 2), trivial_division(grp)).count == 252
    assert len(weighed) == 10


# -- past the tuple loop's reach ----------------------------------------------------


@pytest.mark.parametrize("factors,blocks", [([2, 2], (3, 3, 3)), ([4], (2, 2, 2, 2, 2))])
def test_classify_past_the_default_budget_matches_burnside(factors, blocks):
    """Instances the default budget refuses, classified with the budget raised."""
    grp = build_abelian(factors)
    d = trivial_division(grp)
    total = grp.size ** sum(blocks)
    with pytest.raises(BudgetExceeded):
        classify(grp, blocks, d, budget=100_000)
    cls = classify(grp, blocks, d, budget=total)
    assert sum(cls.orbit_sizes) == cls.total == total
    assert cls.count == classes_by_burnside(grp, blocks, d)


def test_all_singleton_blocks_give_one_class_per_edge_degree_sequence():
    """Elementary gradings on UT_n by G fall into |G|^(n-1) classes, one per
    sequence (deg e_12, ..., deg e_(n-1,n)) (Di Vincenzo, Koshlukov and
    Valenti, J. Algebra 275 (2004)): Z2^3 with n = 5 has 8^4 of them."""
    grp = build_abelian([2, 2, 2])
    cls = classify(grp, (1, 1, 1, 1, 1), trivial_division(grp))
    assert cls.count == 8**4
    # the shift by the first degree's inverse leaves the identity first
    edges = itertools.product(range(8), repeat=4)
    assert cls.representatives == tuple((grp.identity, *t) for t in edges)
    assert set(cls.orbit_sizes) == {8}
    assert cls.total == 8**5


# -- canonical form properties ----------------------------------------------------


def test_canonical_form_constant_on_orbits():
    grp = build_abelian([4])
    d = sign_division(grp, 2)
    p = make_presentation(d, (2, 1), [0, 3, 1])
    base = canonical_form(p)
    for g in grp.elements():
        for h in d.support.members:
            degrees = [grp.mul(grp.mul(x, h), g) for x in (3, 0, 1)]  # block shuffle too
            q = make_presentation(shift_conjugate(d, g), (2, 1), degrees)
            assert canonical_form(q) == base


def test_canonical_form_is_idempotent():
    grp = build_abelian([4])
    d = sign_division(grp, 2)
    for tup in itertools.product(range(4), repeat=2):
        p = make_presentation(d, (1, 1), tup)
        canon = canonical_form(p)
        again = canonical_form(make_presentation(d, (1, 1), canon))
        assert again == canon


def test_classification_representatives_are_canonical_forms():
    grp = build_abelian([3])
    d = trivial_division(grp)
    cls = classify(grp, (1, 1), d)
    reps = set(cls.representatives)
    for tup in itertools.product(range(3), repeat=2):
        assert canonical_form(make_presentation(d, (1, 1), tup)) in reps


def test_classify_rejects_foreign_division():
    with pytest.raises(GroupMismatch):
        classify(build_abelian([2]), (1, 1), trivial_division(build_abelian([3])))


# -- budgets -----------------------------------------------------------------------


def test_classify_budget_argument():
    grp = build_abelian([4])
    with pytest.raises(BudgetExceeded) as ei:
        classify(grp, (1, 1), trivial_division(grp), budget=15)
    assert "4^2 = 16" in str(ei.value)
    classify(grp, (1, 1), trivial_division(grp), budget=16)  # exactly enough


def test_classify_budget_env_var(monkeypatch):
    grp = build_abelian([4])
    monkeypatch.setenv("FLAGISO_BUDGET", "15")
    with pytest.raises(BudgetExceeded):
        classify(grp, (1, 1), trivial_division(grp))
    # an explicit argument wins over the environment
    classify(grp, (1, 1), trivial_division(grp), budget=16)
    monkeypatch.setenv("FLAGISO_BUDGET", "plenty")
    with pytest.raises(InvalidInput) as ei:
        classify(grp, (1, 1), trivial_division(grp))
    assert ei.value.code == "invalid-budget"


def test_classify_budgets_a_one_element_group_as_order_two(monkeypatch):
    monkeypatch.delenv("FLAGISO_BUDGET", raising=False)
    one = Group([[0]], ["e"])
    d = trivial_division(one)
    with pytest.raises(BudgetExceeded) as ei:
        classify(one, (17,), d)
    assert ei.value.code == "budget-exceeded"
    assert str(ei.value) == (
        "enumeration of 2^17 = 131072 tuples exceeds budget 100000"
        " (a one-element group is budgeted as order 2)"
    )
    cls = classify(one, (16,), d)
    assert (cls.representatives, cls.orbit_sizes, cls.total) == (((0,) * 16,), (1,), 1)


# -- cross-checked enumeration ------------------------------------------------------


def test_enumerate_classes_runs_both_cross_checks():
    grp = build_abelian([3])
    table = enumerate_classes(grp, (1, 1), trivial_division(grp))
    assert table.count == 3
    assert table.pairwise_checked and table.membership_checked
    assert table.rows() == [
        (("(0)", "(0)"), 3),
        (("(0)", "(1)"), 3),
        (("(0)", "(2)"), 3),
    ]


def test_enumerate_classes_solves_admissible_shifts_once():
    """classify and the canonical form of every tuple read one cached shift action."""
    action = flagiso.iso._coset_action
    action.cache_clear()
    grp = build_abelian([4])
    cls = enumerate_classes(grp, (1, 1), sign_division(grp, 2))
    assert cls.membership_checked  # the cross-check that reads the shifts ran
    assert cls.shifts == (0, 1, 2, 3)
    assert action.cache_info().misses == 1
    assert action.cache_info().hits == cls.total


def test_enumerate_classes_names_a_form_that_is_no_representative(monkeypatch):
    """A canonical form outside classify's representatives is a named bug, not a KeyError."""
    grp = build_abelian([3])
    monkeypatch.setattr(flagiso.tables, "canonical_form", lambda p: (0, 1, 2))
    with pytest.raises(AssertionError, match=r"tuple \('\(0\)', '\(0\)'\) has canonical form"):
        enumerate_classes(grp, (1, 1), trivial_division(grp))


def test_enumerate_classes_catches_a_wrong_orbit_size(monkeypatch):
    """Two wrong orbit sizes that cancel keep the sum; the per-class tally catches them."""
    grp = build_abelian([3])
    d = trivial_division(grp)
    right = classify(grp, (1, 1), d)

    wrong = dataclasses.replace(right, orbit_sizes=(2, 4, 3))
    monkeypatch.setattr(flagiso.tables, "classify", lambda *args: wrong)
    with pytest.raises(AssertionError, match="orbit sizes"):
        enumerate_classes(grp, (1, 1), d)


def test_enumerate_classes_respects_pair_budget(monkeypatch):
    monkeypatch.setattr(flagiso.tables, "DEFAULT_PAIR_BUDGET", 0)
    grp = build_abelian([3])
    table = enumerate_classes(grp, (1, 1), trivial_division(grp))
    assert table.count == 3
    assert not table.pairwise_checked and not table.membership_checked


def test_union_find_count_agrees():
    grp = build_abelian([2])
    d = trivial_division(grp)
    assert count_classes_pairwise(grp, (1, 1), d) == 2
    z3 = build_abelian([3])
    assert count_classes_pairwise(z3, (1, 1), trivial_division(z3)) == 3
    z4 = build_abelian([4])
    assert count_classes_pairwise(z4, (1, 1), sign_division(z4, 2)) == 2


def test_classify_is_deterministic():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    a = classify(grp, (1, 1), d)
    b = classify(grp, (1, 1), d)
    assert a.representatives == b.representatives
    assert a.orbit_sizes == b.orbit_sizes
