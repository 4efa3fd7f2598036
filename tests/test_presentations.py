import pytest
from conftest import least_form

from flagiso import (
    BlockShape,
    InvalidInput,
    build_abelian,
    make_presentation,
    pauli,
    shift_presentation,
    subgroup_closure,
    trivial_division,
    validate_cocycle,
)


def test_block_shape_basics():
    shape = BlockShape((2, 1, 3))
    assert shape.n == 6
    assert shape.s == 3
    assert [shape.block_of(i) for i in range(6)] == [0, 0, 1, 2, 2, 2]
    assert shape.block_positions() == [range(0, 2), range(2, 3), range(3, 6)]
    with pytest.raises(InvalidInput):
        shape.block_of(6)


@pytest.mark.parametrize("bad", [(), (0,), (1, -1), (1, 0, 2)])
def test_block_shape_rejects_nonpositive(bad):
    with pytest.raises(InvalidInput) as ei:
        BlockShape(bad)
    assert ei.value.code == "bad-blocks"


@pytest.mark.parametrize("bad", [(2.5,), (1, 2.0), (True, 1), ("2",)])
def test_block_shape_rejects_non_integers(bad):
    with pytest.raises(InvalidInput) as ei:
        BlockShape(bad)
    assert ei.value.code == "bad-blocks"
    assert str(ei.value) == f"block sizes must be integers, got {bad}"



@pytest.mark.parametrize(
    "bad, message",
    [
        ((10**100, 0), "block sizes must be positive, got 0 at position 1 of 2"),
        (
            (1, "x" * 100),
            f"block sizes must be integers, got '{'x' * 63}... (102 characters) at position 1 of 2",
        ),
        ((1,) * 16 + (0,), "block sizes must be positive, got 0 at position 16 of 17"),
        ((1,) * 15 + (0,), f"block sizes must be positive, got {(1,) * 15 + (0,)}"),
    ],
)
def test_block_shape_names_one_bad_entry_of_an_oversized_list(bad, message):
    with pytest.raises(InvalidInput) as ei:
        BlockShape(bad)
    assert ei.value.code == "bad-blocks"
    assert str(ei.value) == message


HUGE = 10**5000  # past the 4,300 digits repr converts by default


@pytest.mark.parametrize(
    "make, bad, code, message",
    [
        (
            BlockShape,
            (HUGE, 0),
            "bad-blocks",
            "block sizes must be positive, got 0 at position 1 of 2",
        ),
        (
            BlockShape,
            (-HUGE,),
            "bad-blocks",
            "block sizes must be positive, got a negative int of 16610 bits at position 0 of 1",
        ),
        (
            BlockShape,
            ([HUGE],),
            "bad-blocks",
            "block sizes must be integers, got a list too long to show at position 0 of 1",
        ),
        (
            build_abelian,
            [0, HUGE],
            "invalid-input",
            "every factor must be at least 2, got 0 at position 0 of 2",
        ),
        (
            build_abelian,
            [HUGE, 1],
            "invalid-input",
            "every factor must be at least 2, got 1 at position 1 of 2",
        ),
        (
            build_abelian,
            [2, -HUGE],
            "invalid-input",
            "every factor must be at least 2, got a negative int of 16610 bits at position 1 of 2",
        ),
    ],
    ids=[
        "blocks-huge-then-0",
        "blocks-negative-huge",
        "blocks-list-of-huge",
        "factors-0-then-huge",
        "factors-huge-then-1",
        "factors-negative-huge",
    ],
)
def test_refusals_show_ints_past_the_digit_limit(make, bad, code, message):
    """An int too long for repr is named by its bit length, not echoed, and
    never escapes as repr's ValueError."""
    with pytest.raises(InvalidInput) as ei:
        make(bad)
    assert ei.value.code == code
    assert str(ei.value) == message
    assert len(str(ei.value)) < 300


def test_make_presentation():
    grp = build_abelian([2])
    p = make_presentation(trivial_division(grp), [1, 1], ["(0)", "(1)"])
    assert p.degrees == (0, 1)
    assert p.degree_names() == ("(0)", "(1)")
    assert p.shape.blocks == (1, 1)
    assert p.group is grp


def test_make_presentation_accepts_shape_and_mixed_entries():
    grp = build_abelian([4])
    p = make_presentation(trivial_division(grp), BlockShape((2, 1)), [0, "(3)", grp.elem_by_name("(2)")])
    assert p.degrees == (0, 3, 2)


def test_make_presentation_length_mismatch():
    grp = build_abelian([2])
    with pytest.raises(InvalidInput) as ei:
        make_presentation(trivial_division(grp), [1, 1], ["(0)"])
    assert ei.value.code == "length-mismatch"


def test_make_presentation_rejects_foreign_entries():
    grp = build_abelian([2])
    with pytest.raises(InvalidInput):
        make_presentation(trivial_division(grp), [1], ["(7)"])


def test_shift_presentation():
    grp = build_abelian([4])
    p = make_presentation(trivial_division(grp), [1, 1], [0, 1])
    q = shift_presentation(p, 3)
    assert q.degrees == (3, 0)
    assert q.shape is p.shape
    assert q.division.support.members == (0,)  # trivial part is shift-stable
    r = shift_presentation(q, 1)
    assert r.degrees == p.degrees


def test_shift_presentation_moves_division_part():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    p = make_presentation(d, [2], [0, 1])
    q = shift_presentation(p, "(1,1)")
    assert q.degrees == (3, 2)
    # the support is normal here, so it comes back unchanged and (abelian) so do values
    assert q.division.cocycle.values == d.cocycle.values


def coset_signature(p):
    """Per block, the sorted canonical left-coset representatives, concatenated.

    This is canonical_form restricted to the identity shift.
    """
    return least_form(p.division.support, p.shape.block_positions(), p.degrees, [p.group.identity])


def test_coset_signature_z4():
    z4 = build_abelian([4])
    sub = subgroup_closure(z4, [2])
    from flagiso import GradedDivisionAlgebra

    d = GradedDivisionAlgebra(validate_cocycle(sub, 1, [[0, 0], [0, 0]]))
    p = make_presentation(d, [2, 1], [0, 2, 3])
    # cosets: 0H = {0,2} rep 0, 2H rep 0, 3H = {1,3} rep 1
    assert coset_signature(p) == (0, 0, 1)


def test_coset_signature_trivial_support_is_degree_multiset():
    grp = build_abelian([3])
    d = trivial_division(grp)
    p = make_presentation(d, [2, 1], [2, 0, 1])
    assert coset_signature(p) == (0, 2, 1)


def test_coset_signature_ignores_order_within_block():
    grp = build_abelian([4])
    d = trivial_division(grp)
    a = make_presentation(d, [2, 1], [1, 3, 0])
    b = make_presentation(d, [2, 1], [3, 1, 0])
    assert coset_signature(a) == coset_signature(b)


def test_coset_signature_invariant_under_support_translation():
    # multiplying an entry by a support element on the right fixes its coset
    z4 = build_abelian([4])
    sub = subgroup_closure(z4, [2])
    from flagiso import GradedDivisionAlgebra, trivial_cocycle

    d = GradedDivisionAlgebra(trivial_cocycle(sub, 1))
    for g in z4.elements():
        for h in sub.members:
            a = make_presentation(d, [1, 1], [g, 1])
            b = make_presentation(d, [1, 1], [z4.mul(g, h), 1])
            assert coset_signature(a) == coset_signature(b)
