import itertools

import pytest
from conftest import count_classes_pairwise

import flagiso.iso
import flagiso.tables
from flagiso import (
    BudgetExceeded,
    GradedDivisionAlgebra,
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
    if div_kind == "trivial":
        d = trivial_division(grp)
    elif div_kind == "sign":
        d = sign_division(grp, 2)
    else:
        d = pauli(2, grp, [2, 1])
    want = orbits_by_brute(grp, blocks, d)
    cls = classify(grp, blocks, d)
    assert cls.count == len(want)
    assert sorted(cls.orbit_sizes) == sorted(len(o) for o in want)
    assert sum(cls.orbit_sizes) == cls.total == grp.size ** sum(blocks)


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


def test_enumerate_classes_solves_admissible_shifts_once(monkeypatch):
    calls = []
    solve = flagiso.iso._admissible_shifts

    def counted(division):
        calls.append(division)
        return solve(division)

    monkeypatch.setattr(flagiso.iso, "_admissible_shifts", counted)
    grp = build_abelian([4])
    cls = enumerate_classes(grp, (1, 1), sign_division(grp, 2))
    assert cls.membership_checked  # the cross-check that reads the shifts ran
    assert cls.shifts == (0, 1, 2, 3)
    assert len(calls) == 1


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
