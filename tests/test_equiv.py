import itertools

import pytest

from flagiso import (
    EQUIVALENT,
    INCONCLUSIVE,
    ISOMORPHIC,
    NOT_EQUIVALENT,
    EquivWitness,
    GradedDivisionAlgebra,
    Subgroup,
    UnsupportedInput,
    WitnessReport,
    build_abelian,
    equiv_check,
    equiv_elementary,
    iso_algebras,
    make_presentation,
    pauli,
    realize,
    trivial_cocycle,
    trivial_division,
    verify_equiv_witness,
)


def elem_pres(factors, blocks, degrees):
    grp = build_abelian(factors)
    return make_presentation(trivial_division(grp), blocks, degrees)


# -- full decision on elementary gradings ---------------------------------------


def test_relabeling_across_groups_frozen():
    p = elem_pres([2], [1, 1], [0, 1])
    q = elem_pres([4], [1, 1], [0, 1])
    v = equiv_elementary(p, q)
    assert v.kind == EQUIVALENT
    ew = v.equiv_witness
    assert ew.lam == {0: 0, 1: 1}
    assert ew.sigma == (0, 1)
    assert ew.component_map == {0: 0, 1: 3}  # the off-diagonal component moves
    assert verify_equiv_witness(realize(p), realize(q), ew).ok


def test_self_equivalence_identity_witness():
    p = elem_pres([3], [1, 1, 1], [0, 1, 2])
    v = equiv_elementary(p, p)
    assert v.kind == EQUIVALENT
    assert v.equiv_witness.lam == {0: 0, 1: 1, 2: 2}
    assert v.equiv_witness.sigma == (0, 1, 2)


def test_sigma_convention_source_to_target():
    p = elem_pres([2], [2, 1], [0, 1, 0])
    q = elem_pres([2], [2, 1], [0, 1, 1])
    v = equiv_elementary(p, q)
    assert v.kind == EQUIVALENT
    ew = v.equiv_witness
    assert ew.lam == {0: 1, 1: 0}
    assert ew.sigma == (1, 0, 2)  # source position 0 lands on target position 1
    assert ew.component_map == {0: 0, 1: 1}


def test_equivalent_but_not_isomorphic():
    p = elem_pres([3], [1, 1], [0, 1])
    q = elem_pres([3], [1, 1], [0, 2])
    assert iso_algebras(p, q).kind == "NOT_ISOMORPHIC"
    v = equiv_elementary(p, q)
    assert v.kind == EQUIVALENT
    assert v.equiv_witness.lam == {0: 0, 1: 2}


def test_value_set_size_mismatch():
    p = elem_pres([2], [1, 1], [0, 1])
    q = elem_pres([2], [1, 1], [0, 0])
    v = equiv_elementary(p, q)
    assert v.kind == NOT_EQUIVALENT
    assert "degree value sets have different sizes: 2 vs 1" in v.reason


def test_blockwise_multiplicity_mismatch():
    p = elem_pres([2], [2, 1], [0, 1, 0])
    q = elem_pres([2], [2, 1], [0, 0, 1])
    v = equiv_elementary(p, q)
    assert v.kind == NOT_EQUIVALENT
    assert "multiplicity profiles" in v.reason


def test_shape_mismatch():
    p = elem_pres([2], [1, 1], [0, 1])
    q = elem_pres([2], [2], [0, 1])
    v = equiv_elementary(p, q)
    assert v.kind == NOT_EQUIVALENT
    assert "block shapes differ" in v.reason


def test_coincidence_condition_blocks_relabeling():
    # (e, b, b^2) over Z_4 repeats a difference; no Klein relabeling can copy that
    p = elem_pres([4], [1, 1, 1], [0, 1, 2])
    q = elem_pres([2, 2], [1, 1, 1], [0, 2, 1])
    v = equiv_elementary(p, q)
    assert v.kind == NOT_EQUIVALENT
    assert "coincidence condition" in v.reason
    # the one-directional screen cannot see this
    assert equiv_check(p, q).kind == INCONCLUSIVE


def test_requires_trivial_division_parts():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    p = make_presentation(d, [1, 1], [0, 1])
    q = elem_pres([2, 2], [1, 1], [0, 1])
    with pytest.raises(UnsupportedInput):
        equiv_elementary(p, q)
    with pytest.raises(UnsupportedInput):
        equiv_elementary(q, p)


# -- the one-directional screen ---------------------------------------------------


def test_check_shape_mismatch():
    p = elem_pres([2], [1, 1], [0, 1])
    q = elem_pres([2], [2], [0, 1])
    v = equiv_check(p, q)
    assert v.kind == NOT_EQUIVALENT
    assert "block shapes differ" in v.reason


def test_check_division_mismatch():
    grp = build_abelian([2, 2])
    p = make_presentation(pauli(2, grp, [2, 1]), [1], [0])
    q = make_presentation(trivial_division(grp), [1], [0])
    v = equiv_check(p, q)
    assert v.kind == NOT_EQUIVALENT
    assert v.reason == "division parts are not equivalent"


def test_check_profile_mismatch():
    p = elem_pres([2], [1, 1], [0, 1])
    q = elem_pres([2], [1, 1], [0, 0])
    v = equiv_check(p, q)
    assert v.kind == NOT_EQUIVALENT
    assert "coset-class profiles" in v.reason


def test_check_is_inconclusive_when_conditions_hold():
    p = elem_pres([2], [1, 1], [0, 1])
    q = elem_pres([4], [1, 1], [0, 1])
    v = equiv_check(p, q)
    assert v.kind == INCONCLUSIVE
    assert "all necessary conditions hold" in v.reason


def test_check_never_answers_equivalent_even_on_equal_inputs():
    grp = build_abelian([2, 2])
    p = make_presentation(pauli(2, grp, [2, 1]), [1, 1], [0, 1])
    assert equiv_check(p, p).kind == INCONCLUSIVE


# -- agreement between the two deciders ---------------------------------------------


def test_isomorphic_implies_equivalent_exhaustively():
    for factors in ([2], [3]):
        grp = build_abelian(factors)
        d = trivial_division(grp)
        tuples = list(itertools.product(range(grp.size), repeat=2))
        pres = {t: make_presentation(d, [1, 1], t) for t in tuples}
        for s in tuples:
            for t in tuples:
                iso = iso_algebras(pres[s], pres[t]).kind
                eq = equiv_elementary(pres[s], pres[t]).kind
                if iso == ISOMORPHIC:
                    assert eq == EQUIVALENT, (factors, s, t)
                if eq == NOT_EQUIVALENT:
                    assert iso == "NOT_ISOMORPHIC", (factors, s, t)


def test_equivalence_is_an_equivalence_relation_on_z3_tuples():
    grp = build_abelian([3])
    d = trivial_division(grp)
    tuples = list(itertools.product(range(3), repeat=2))
    pres = {t: make_presentation(d, [1, 1], t) for t in tuples}
    related = {
        (s, t): equiv_elementary(pres[s], pres[t]).kind == EQUIVALENT
        for s in tuples
        for t in tuples
    }
    for s in tuples:
        assert related[(s, s)]
        for t in tuples:
            assert related[(s, t)] == related[(t, s)]
            for u in tuples:
                if related[(s, t)] and related[(t, u)]:
                    assert related[(s, u)]


# -- witness verification -------------------------------------------------------------


def equivalent_pair():
    p = elem_pres([2], [2, 1], [0, 1, 0])
    q = elem_pres([2], [2, 1], [0, 1, 1])
    ew = equiv_elementary(p, q).equiv_witness
    return p, q, ew


def test_verify_equiv_rejects_non_permutation():
    p, q, ew = equivalent_pair()
    bad = EquivWitness(p, q, ew.lam, (0, 0, 2), ew.component_map)
    rep = verify_equiv_witness(realize(p), realize(q), bad)
    assert not rep.ok and "permutation" in rep.failures[0]


def test_verify_equiv_rejects_cross_block_sigma():
    p, q, ew = equivalent_pair()
    bad = EquivWitness(p, q, ew.lam, (2, 1, 0), ew.component_map)
    rep = verify_equiv_witness(realize(p), realize(q), bad)
    assert not rep.ok
    assert any("leaves the algebra" in f for f in rep.failures)


def test_verify_equiv_rejects_component_splitting_sigma():
    p = elem_pres([2], [1, 1, 1], [0, 0, 1])
    q = elem_pres([2], [1, 1, 1], [0, 1, 1])
    # degrees of p at (0,1) and (1,2): e and a; swapping middle and last
    # target slots makes one source component hit two target degrees
    bad = EquivWitness(p, q, {0: 1, 1: 0}, (0, 1, 2), {})
    rep = verify_equiv_witness(realize(p), realize(q), bad)
    assert rep == WitnessReport(False, 6, (
        "component at degree (0) is split across target degrees",
        "component at degree (1) is split across target degrees",
    ))


def test_verify_equiv_names_a_split_component_once():
    """e_23 and e_32, of degree (3), both land off that component's first
    image, (0): the line naming the split comes once, not once per cell."""
    p = elem_pres([6], [1, 2], [4, 1, 4])
    q = elem_pres([6], [1, 2], [0, 0, 3])
    ew = EquivWitness(p, q, {}, (0, 1, 2), {})
    assert verify_equiv_witness(realize(p), realize(q), ew) == WitnessReport(False, 7, (
        "component at degree (0) is split across target degrees",
        "component at degree (3) is split across target degrees",
    ))


def test_verify_equiv_rejects_misstated_component_map():
    p, q, ew = equivalent_pair()
    bad_cm = dict(ew.component_map)
    bad_cm[1] = 0
    bad = EquivWitness(p, q, ew.lam, ew.sigma, bad_cm)
    rep = verify_equiv_witness(realize(p), realize(q), bad)
    assert not rep.ok
    assert any("stated component map disagrees" in f for f in rep.failures)


def test_verify_equiv_refuses_a_relabeling_that_disagrees_with_sigma():
    """lam is printed with the witness, so it must send each source degree to
    the target degree at sigma's image: the first position where it fails is
    named, after every other check has passed."""
    p = elem_pres([2], [1, 1], [0, 1])
    q = elem_pres([4], [1, 1], [0, 1])
    ew = equiv_elementary(p, q).equiv_witness
    assert (ew.lam, ew.sigma) == ({0: 0, 1: 1}, (0, 1))
    assert verify_equiv_witness(realize(p), realize(q), ew) == WitnessReport(True, 3, ())
    for lam, failure in (
        ({0: 3, 1: 2}, "lam does not send (0) to (0) at position 1"),
        ({0: 0}, "lam does not send (1) to (1) at position 2"),
    ):
        bad = EquivWitness(p, q, lam, ew.sigma, ew.component_map)
        assert verify_equiv_witness(realize(p), realize(q), bad) == WitnessReport(
            False, 3, (failure,)
        )


def test_verify_equiv_rejects_dimension_mismatch():
    p, q, ew = equivalent_pair()
    r = elem_pres([2], [1, 1], [0, 1])
    rep = verify_equiv_witness(realize(p), realize(r), ew)
    assert not rep.ok and "different dimensions" in rep.failures[0]


@pytest.mark.parametrize("sigma", [(0, 1), (0, 1, 2, 3)])
def test_verify_equiv_checks_sigma_against_the_source_positions(sigma):
    """A sigma must permute the source's n positions: one too short used to
    index past its end, one too long to pass."""
    p = elem_pres([2], [1, 1, 1], [0, 1, 0])
    ew = equiv_elementary(p, p).equiv_witness
    assert ew.sigma == (0, 1, 2)
    bad = EquivWitness(p, p, ew.lam, sigma, ew.component_map)
    rep = verify_equiv_witness(realize(p), realize(p), bad)
    assert rep == WitnessReport(False, 0, ("sigma is not a permutation",))


@pytest.mark.parametrize("sigma", [(0.0, 1.0, 2.0), (False, True, 2)], ids=["floats", "bools"])
def test_verify_equiv_refuses_a_sigma_of_equal_positions_that_are_not_ints(sigma):
    """Entries equal to the positions 0, 1, 2 but not ints are refused, as
    build_witness refuses them in an isomorphism's sigma: they used to pass."""
    p = elem_pres([2], [1, 1, 1], [0, 1, 0])
    ew = equiv_elementary(p, p).equiv_witness
    bad = EquivWitness(p, p, ew.lam, sigma, ew.component_map)
    rep = verify_equiv_witness(realize(p), realize(p), bad)
    assert rep == WitnessReport(False, 0, ("sigma is not a permutation",))


def test_verify_equiv_rejects_merged_components():
    """Onto a target whose degrees all coincide, the two components of the
    source land on one target degree, of another dimension than either."""
    p = elem_pres([2], [1, 1], [0, 1])
    q = elem_pres([2], [1, 1], [0, 0])
    ew = EquivWitness(p, q, {0: 0, 1: 0}, (0, 1), {0: 0, 1: 0})
    rep = verify_equiv_witness(realize(p), realize(q), ew)
    assert rep == WitnessReport(False, 3, (
        "two components merge into one target degree",
        "component dimensions differ: 2 at (0) vs 3 at (0)",
        "component dimensions differ: 1 at (1) vs 3 at (0)",
    ))


def test_verify_equiv_refuses_a_nontrivial_source_support():
    grp = build_abelian([2])
    d = GradedDivisionAlgebra(trivial_cocycle(Subgroup(grp, (0, 1))))
    p, q = make_presentation(d, [1, 1], [0, 1]), make_presentation(d, [1, 1], [1, 0])
    ew = EquivWitness(p, q, {0: 1, 1: 0}, (0, 1), {0: 0, 1: 1})
    rep = verify_equiv_witness(realize(p), realize(q), ew)
    assert rep == WitnessReport(False, 0, ("nontrivial division part in equivalence check",))
