import pytest
from conftest import corrector_by_brute, is_corrector_by_pairs, make_sym

from flagiso import (
    GroupMismatch,
    InvalidInput,
    Subgroup,
    build_abelian,
    equiv_division,
    iso_division,
    make_presentation,
    pauli,
    shift_conjugate,
    subgroup_closure,
    trivial_division,
    validate_cocycle,
)

# frozen in test_cocycles from the commutation rule j1*i2 mod 2
KLEIN_PAULI = ((0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 0, 0), (0, 0, 1, 1))


# -- constructors ----------------------------------------------------------------


def test_trivial_division():
    d = trivial_division(build_abelian([6]))
    assert d.is_trivial()
    assert len(d.support.members) == 1
    assert d.order == 1
    assert d.support.members == (0,)


def test_pauli_two_on_klein():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, ["(1,0)", "(0,1)"])
    assert len(d.support.members) == 4
    assert not d.is_trivial()
    assert d.order == 2
    assert d.support.members == (0, 1, 2, 3)
    assert d.cocycle.values == KLEIN_PAULI
    u = grp.elem_by_name("(1,0)").index
    v = grp.elem_by_name("(0,1)").index
    assert d.cocycle.val(u, v) == 0  # x_u x_v = +x_uv
    assert d.cocycle.val(v, u) == 1  # x_v x_u = -x_uv


def test_pauli_three():
    grp = build_abelian([3, 3])
    u = grp.elem_by_name("(1,0)")
    v = grp.elem_by_name("(0,1)")
    d = pauli(3, grp, [u, v])
    assert len(d.support.members) == 9
    assert d.order == 3
    coc = d.cocycle
    assert coc.val(u.index, v.index) == 0
    assert coc.val(v.index, u.index) == 1  # omega
    v2 = grp.mul(v.index, v.index)
    assert coc.val(v2, u.index) == 2  # omega^2
    assert coc.val(u.index, u.index) == 0


def test_pauli_accepts_index_name_and_elem():
    grp = build_abelian([2, 2])
    by_name = pauli(2, grp, ["(1,0)", "(0,1)"])
    by_index = pauli(2, grp, [2, 1])
    by_elem = pauli(2, grp, [grp.elem_by_name("(1,0)"), grp.elem_by_name("(0,1)")])
    assert by_name.cocycle.values == by_index.cocycle.values == by_elem.cocycle.values


def test_pauli_rejections():
    grp = build_abelian([2, 2])
    with pytest.raises(InvalidInput) as ei:
        pauli(1, grp, [2, 1])
    assert ei.value.code == "invalid-embedding"

    with pytest.raises(InvalidInput) as ei:
        pauli(2, build_abelian([4]), [1, 2])  # (1) has order 4
    assert ei.value.code == "invalid-embedding"
    assert "u=" in str(ei.value)

    s3, _, idx = make_sym(3)
    t12 = idx[(1, 0, 2)]
    t13 = idx[(2, 1, 0)]
    with pytest.raises(InvalidInput) as ei:
        pauli(2, s3, [t12, t13])  # right orders but they do not commute
    assert ei.value.code == "invalid-embedding"
    assert "commute" in str(ei.value)

    with pytest.raises(InvalidInput) as ei:
        pauli(2, build_abelian([2]), ["(1)", "(1)"])  # u^1 v^0 = u^0 v^1
    assert ei.value.code == "invalid-embedding"
    assert "collides" in str(ei.value)


def test_element_coercion_errors():
    grp = build_abelian([2, 2])
    with pytest.raises(InvalidInput) as ei:
        pauli(2, grp, [9, 1])
    assert ei.value.code == "bad-element"
    with pytest.raises(GroupMismatch):
        pauli(2, grp, [build_abelian([4]).elem_by_name("(1)"), 1])
    with pytest.raises(InvalidInput):
        pauli(2, grp, [2.0, 1])


# -- shifts ---------------------------------------------------------------------


def test_shift_conjugate_moves_support():
    s3, _, idx = make_sym(3)
    t12 = idx[(1, 0, 2)]
    t13 = idx[(2, 1, 0)]
    t23 = idx[(0, 2, 1)]
    sub = subgroup_closure(s3, [t12])
    sigma = validate_cocycle(sub, 2, [[0, 0], [0, 1]])
    from flagiso import GradedDivisionAlgebra

    d = GradedDivisionAlgebra(sigma)
    moved = shift_conjugate(d, t13)
    assert moved.support.members == tuple(sorted((s3.identity, t23)))
    assert moved.cocycle.val(t23, t23) == 1  # values ride along
    assert moved.order == 2


def test_shift_conjugate_identity_and_coercion():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    assert shift_conjugate(d, 0).cocycle.values == d.cocycle.values
    assert shift_conjugate(d, "(1,1)").cocycle.values == d.cocycle.values  # abelian
    with pytest.raises(InvalidInput):
        shift_conjugate(d, 17)


HUGE = 10**5000  # past the 4,300 digits repr converts by default


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda d: shift_conjugate(d, HUGE), "element index an int of 16610 bits out of range"),
        (
            lambda d: shift_conjugate(d, -HUGE),
            "element index a negative int of 16610 bits out of range",
        ),
        (
            lambda d: make_presentation(d, [1], [HUGE]),
            "element index an int of 16610 bits out of range",
        ),
        (lambda d: shift_conjugate(d, -(10**62)), f"element index {-(10**62)} out of range"),
        (
            lambda d: shift_conjugate(d, 10**64),
            f"element index {str(10**64)[:64]}... (65 characters) out of range",
        ),
    ],
    ids=["shift-huge", "shift-negative-huge", "degree-huge", "shift-64-characters", "shift-65"],
)
def test_element_indices_past_the_digit_limit_are_refused(call, message):
    """An index too long for repr is named by its bit length, never escaping as
    repr's ValueError; one of at most 64 characters is shown whole."""
    d = pauli(2, build_abelian([2, 2]), [2, 1])
    with pytest.raises(InvalidInput) as ei:
        call(d)
    assert ei.value.code == "bad-element"
    assert str(ei.value) == message
    assert len(message) < 300


# -- isomorphism ------------------------------------------------------------------


def test_iso_division_self():
    d = pauli(2, build_abelian([2, 2]), [2, 1])
    mu = iso_division(d, d)
    assert mu is not None
    assert all(v == 0 for v in mu.exps)


def test_iso_division_requires_same_group():
    with pytest.raises(GroupMismatch):
        iso_division(trivial_division(build_abelian([2])), trivial_division(build_abelian([3])))


def test_iso_division_support_mismatch_is_none():
    grp = build_abelian([2, 2])
    assert iso_division(pauli(2, grp, [2, 1]), trivial_division(grp)) is None


def test_pauli_not_iso_to_trivial_twist():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    sub = d.support
    from flagiso import GradedDivisionAlgebra, trivial_cocycle

    group_algebra = GradedDivisionAlgebra(trivial_cocycle(sub, 2))
    # oracle first: no corrector exists
    assert corrector_by_brute(d.cocycle, group_algebra.cocycle) is None
    assert iso_division(d, group_algebra) is None


def test_iso_division_across_root_orders():
    grp = build_abelian([2])
    sub = Subgroup(grp, (0, 1))
    from flagiso import GradedDivisionAlgebra

    minus = GradedDivisionAlgebra(validate_cocycle(sub, 2, [[0, 0], [0, 1]]))
    minus4 = GradedDivisionAlgebra(validate_cocycle(sub, 4, [[0, 0], [0, 2]]))
    mu = iso_division(minus, minus4)
    assert mu is not None and mu.order == 4
    eye = GradedDivisionAlgebra(validate_cocycle(sub, 4, [[0, 0], [0, 1]]))
    assert iso_division(minus, eye) is None


def test_pauli_transposed_images_agree_with_brute():
    grp = build_abelian([2, 2])
    d1 = pauli(2, grp, [2, 1])
    d2 = pauli(2, grp, [1, 2])
    got = iso_division(d1, d2)
    want = corrector_by_brute(d1.cocycle, d2.cocycle)
    assert (got is None) == (want is None)
    if got is not None:
        assert is_corrector_by_pairs(got, d1.cocycle, d2.cocycle)


# -- equivalence -------------------------------------------------------------------


def test_equiv_division_across_groups():
    z4 = build_abelian([4])
    sub = subgroup_closure(z4, [2])
    from flagiso import GradedDivisionAlgebra

    d = GradedDivisionAlgebra(validate_cocycle(sub, 2, [[0, 0], [0, 1]]))
    z2 = build_abelian([2])
    d2 = GradedDivisionAlgebra(validate_cocycle(Subgroup(z2, (0, 1)), 2, [[0, 0], [0, 1]]))
    res = equiv_division(d, d2)
    assert res is not None
    alpha, mu = res
    assert alpha == {0: 0, 2: 1}
    assert all(v == 0 for v in mu.exps)


def test_equiv_division_size_mismatch():
    grp = build_abelian([2, 2])
    assert equiv_division(pauli(2, grp, [2, 1]), trivial_division(grp)) is None


def test_pauli_not_equivalent_to_group_algebra():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    from flagiso import GradedDivisionAlgebra, find_isomorphisms, transport, trivial_cocycle

    plain = GradedDivisionAlgebra(trivial_cocycle(d.support, 2))
    # oracle first: every support automorphism still leaves the classes apart
    autos = find_isomorphisms(d.support, d.support)
    assert len(autos) == 6
    for alpha in autos:
        moved = transport(d.cocycle, alpha, plain.support)
        assert corrector_by_brute(moved, plain.cocycle) is None
    assert equiv_division(d, plain) is None


def test_equiv_division_pauli_self_across_generator_choices():
    grp = build_abelian([2, 2])
    d1 = pauli(2, grp, [2, 1])
    d2 = pauli(2, grp, [1, 3])  # different generating pair of the same four-group
    res = equiv_division(d1, d2)
    assert res is not None
    alpha, mu = res
    from flagiso import transport

    assert is_corrector_by_pairs(mu, transport(d1.cocycle, alpha, d2.support), d2.cocycle)
