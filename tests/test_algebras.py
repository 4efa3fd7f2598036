import pytest
from conftest import invariants_by_basis, make_sym, product, products_read, realize_by_basis

from flagiso import (
    BasisElem,
    BlockShape,
    GradedAlgebra,
    GradedDivisionAlgebra,
    build_abelian,
    check_grading,
    invariants,
    make_presentation,
    pauli,
    realize,
    shift_presentation,
    subgroup_closure,
    trivial_cocycle,
    trivial_division,
    validate_table,
)
from flagiso import algebras

# -- oracles -----------------------------------------------------------------


def expected_dim(support_size, blocks):
    """|H| * sum_{k<=l} m_k m_l, counted pair by pair."""
    s = len(blocks)
    return support_size * sum(
        blocks[k] * blocks[l] for k in range(s) for l in range(k, s)
    )


def triple(alg, b1, b2, b3, left):
    """(b1 b2) b3 or b1 (b2 b3), as (exponent, basis elem) or None."""
    first = product(alg, b1, b2) if left else product(alg, b2, b3)
    if first is None:
        return None
    e1, mid = first
    second = product(alg, mid, b3) if left else product(alg, b1, mid)
    if second is None:
        return None
    e2, out = second
    return (e1 + e2) % alg.order, out


def identity_component_dim(alg):
    """dim A_e; it is 1 exactly for the division gradings among these algebras."""
    return alg.degree.count(alg.group.identity)


def assert_associative(alg):
    for b1 in alg.basis:
        for b2 in alg.basis:
            for b3 in alg.basis:
                assert triple(alg, b1, b2, b3, True) == triple(alg, b1, b2, b3, False)


def tensor_grading(blocks, degrees, division):
    """Grading on UT(blocks) tensor D with deg(e_ij (x) x_h) = g_i h g_j^-1.

    Constructed from matrix-unit algebra rules directly, then checked basis
    element by basis element against realize() of the same presentation; the
    two must coincide exactly.
    """
    p = make_presentation(division, blocks, degrees)
    base = realize(p)
    grp = p.group
    shape = p.shape
    members = division.support.members
    block_of = [shape.block_of(i) for i in range(shape.n)]

    pairs = [
        (i, j) for i in range(shape.n) for j in range(shape.n) if block_of[i] <= block_of[j]
    ]
    pairs.sort(key=lambda ij: (block_of[ij[0]], block_of[ij[1]], ij[0], ij[1]))
    elems = [BasisElem(i, j, h) for (i, j) in pairs for h in members]
    assert tuple(elems) == base.basis, "tensor basis order diverges from realization"

    for pos, (i, j, h) in enumerate(elems):
        want = grp.mul(grp.mul(p.degrees[i], h), grp.inv(p.degrees[j]))
        assert base.degree[pos] == want, f"degree of e_{i}{j} (x) x_{h} diverges"

    coc = division.cocycle
    idx = {b: k for k, b in enumerate(elems)}
    for i, j, h in elems:  # e_ij e_kl = delta_jk e_il, tensored with x_h x_h2
        for k, l, h2 in elems:
            if j != k:
                got = product(base, BasisElem(i, j, h), BasisElem(k, l, h2))
                assert got is None, "realization has a product the tensor rule forbids"
                continue
            exp = coc.val(h, h2)
            target = BasisElem(i, l, grp.mul(h, h2))
            assert target in idx, "tensor product leaves the basis"
            got = product(base, BasisElem(i, j, h), BasisElem(k, l, h2))
            assert got == (exp, target), "structure constants diverge from the tensor rule"
    return base


# -- elementary gradings ----------------------------------------------------------


def elementary_ut(group, blocks, degrees):
    """Elementary grading on upper block triangular matrices: deg e_ij = g_i g_j^-1."""
    return realize(make_presentation(trivial_division(group), blocks, degrees))


def test_elementary_z2_frozen_structure():
    alg = elementary_ut(build_abelian([2]), (1, 1), [0, 1])
    assert alg.basis == (BasisElem(0, 0, 0), BasisElem(0, 1, 0), BasisElem(1, 1, 0))
    assert alg.degree == (0, 1, 0)
    assert alg.dim == 3 == expected_dim(1, (1, 1))
    assert product(alg, BasisElem(0, 0, 0), BasisElem(0, 1, 0)) == (0, BasisElem(0, 1, 0))
    assert product(alg, BasisElem(0, 1, 0), BasisElem(0, 0, 0)) is None  # strictly upper
    assert identity_component_dim(alg) == 2  # not a division grading


def test_elementary_z3_chain_dims():
    alg = elementary_ut(build_abelian([3]), (1, 1, 1), [0, 1, 2])
    inv = invariants(alg)
    assert inv.total_dim == 6
    assert dict(inv.dims) == {0: 3, 1: 1, 2: 2}
    assert inv.radical_dims == ((1, ((1, 1), (2, 2))), (2, ((1, 1),)))


def test_full_matrix_algebra_at_identity():
    alg = elementary_ut(build_abelian([2]), (2,), [0, 0])
    assert alg.dim == 4
    assert dict(invariants(alg).dims) == {0: 4}
    assert identity_component_dim(alg) != 1  # not a division grading
    assert_associative(alg)


def test_elementary_nonabelian_degrees():
    s3, _, idx = make_sym(3)
    t12 = idx[(1, 0, 2)]
    t13 = idx[(2, 1, 0)]
    alg = elementary_ut(s3, (1, 1), [t12, t13])
    # deg e_01 = t12 * t13^-1; both are involutions
    assert alg.degree[alg.index[BasisElem(0, 1, s3.identity)]] == s3.mul(t12, t13)
    assert alg.degree[alg.index[BasisElem(0, 0, s3.identity)]] == s3.identity
    assert_associative(alg)


# -- division-part gradings --------------------------------------------------------


def test_pauli_block_is_division_grading():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    alg = realize(make_presentation(d, [1], [0]))
    assert alg.dim == 4
    assert identity_component_dim(alg) == 1  # a division grading
    assert dict(invariants(alg).dims) == {0: 1, 1: 1, 2: 1, 3: 1}
    assert_associative(alg)


def test_pauli_two_blocks_frozen():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    alg = realize(make_presentation(d, [1, 1], [0, 1]))
    assert alg.dim == 12 == expected_dim(4, (1, 1))
    assert alg.basis[:4] == (
        BasisElem(0, 0, 0),
        BasisElem(0, 0, 1),
        BasisElem(0, 0, 2),
        BasisElem(0, 0, 3),
    )
    assert alg.degree == (0, 1, 2, 3, 1, 0, 3, 2, 0, 1, 2, 3)
    u = grp.elem_by_name("(1,0)").index
    assert alg.degree[alg.index[BasisElem(0, 1, u)]] == grp.elem_by_name("(1,1)").index
    assert identity_component_dim(alg) == 3  # not a division grading
    assert_associative(alg)


def test_product_scalars_follow_cocycle():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    alg = realize(make_presentation(d, [1], [0]))
    u, v = 2, 1
    uv = grp.mul(u, v)
    assert product(alg, BasisElem(0, 0, u), BasisElem(0, 0, v)) == (0, BasisElem(0, 0, uv))
    assert product(alg, BasisElem(0, 0, v), BasisElem(0, 0, u)) == (1, BasisElem(0, 0, uv))
    assert product(alg, BasisElem(0, 0, v), BasisElem(0, 0, v)) == (0, BasisElem(0, 0, 0))


def test_dim_identity_across_shapes():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    for blocks in [(1,), (2,), (2, 1), (1, 2, 1), (3,)]:
        n = sum(blocks)
        alg = realize(make_presentation(d, blocks, [0] * n))
        assert alg.dim == expected_dim(4, blocks)
    z6 = build_abelian([6])
    for blocks in [(1, 1), (2, 2), (1, 1, 1, 1)]:
        n = sum(blocks)
        alg = elementary_ut(z6, blocks, list(range(n)))
        assert alg.dim == expected_dim(1, blocks)


# -- tensor construction ------------------------------------------------------------


def test_tensor_grading_matches_realization():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    alg = tensor_grading((1, 1), [0, 1], d)
    assert alg.dim == 12
    assert alg.degree == realize(make_presentation(d, (1, 1), [0, 1])).degree


def test_tensor_with_trivial_division_is_elementary():
    z2 = build_abelian([2])
    a = tensor_grading((1, 1), [0, 1], trivial_division(z2))
    b = elementary_ut(z2, (1, 1), [0, 1])
    assert a.basis == b.basis and a.degree == b.degree


# -- grading law ---------------------------------------------------------------------


def test_check_grading_counts_products():
    alg = elementary_ut(build_abelian([2]), (1, 1), [0, 1])
    rep = check_grading(alg)
    assert rep.ok
    assert rep.checked_products == 4
    assert rep.violations == ()


def test_check_grading_flags_inconsistent_degrees():
    alg = elementary_ut(build_abelian([2]), (1, 1), [0, 1])
    bad = list(alg.degree)
    bad[alg.index[BasisElem(0, 0, 0)]] = 1  # an idempotent must sit in degree e
    broken = GradedAlgebra(alg.presentation, alg.basis, tuple(bad), dict(alg.index))
    rep = check_grading(broken)
    assert not rep.ok
    assert rep.violations and "deg(" in rep.violations[0]


def test_check_grading_walks_only_generator_products():
    """Z2 x Z4 with the clock-and-shift division, blocks (2,2,2): a valid grading
    is proved on the 216 generator products of 1,280; a broken one walks them
    all again.  Either way the report counts every nonzero product."""
    grp = build_abelian([2, 4])
    d = pauli(2, grp, ["(1,0)", "(0,2)"])
    alg = realize(make_presentation(d, (2, 2, 2), [0, 1, 2, 3, 4, 5]))
    with products_read() as walked:
        rep = check_grading(alg)
    assert (rep.ok, rep.checked_products, sum(walked)) == (True, 1280, 216)
    bad = list(alg.degree)
    bad[0] = 1  # the unit (0,0,e) moved off degree e
    with products_read() as walked:
        rep = check_grading(GradedAlgebra(alg.presentation, alg.basis, tuple(bad), alg.index))
    assert (rep.ok, rep.checked_products, sum(walked)) == (False, 1280, 216 + 1280)


# -- invariants under flag-preserving moves -------------------------------------------


def test_invariants_stable_under_shift():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    p = make_presentation(d, [1, 1], [0, 1])
    base = invariants(realize(p))
    for g in grp.elements():
        assert invariants(realize(shift_presentation(p, g))) == base


def test_invariants_count_the_algebras_own_degrees():
    """invariants reads alg.degree: with a basis degree replaced, it counts the
    replacement, as the count over the basis does, not the presentation's cells."""
    alg = realize(make_presentation(trivial_division(build_abelian([4])), [1, 1], [0, 1]))
    assert invariants(alg).dims == ((0, 2), (3, 1))
    moved = GradedAlgebra(alg.presentation, alg.basis, (3, *alg.degree[1:]), alg.index)
    assert invariants(moved).dims == ((0, 1), (3, 2))
    assert invariants(moved) == invariants_by_basis(moved)


def test_invariants_stable_under_in_block_permutation():
    z4 = build_abelian([4])
    d = trivial_division(z4)
    a = realize(make_presentation(d, [2, 1], [1, 3, 0]))
    b = realize(make_presentation(d, [2, 1], [3, 1, 0]))
    assert invariants(a) == invariants(b)


def test_invariants_stable_under_support_translation():
    z4 = build_abelian([4])
    from flagiso import GradedDivisionAlgebra, subgroup_closure, trivial_cocycle

    sub = subgroup_closure(z4, [2])
    d = GradedDivisionAlgebra(trivial_cocycle(sub, 1))
    a = realize(make_presentation(d, [1, 1], [0, 1]))
    b = realize(make_presentation(d, [1, 1], [2, 1]))  # 0*2 stays in the coset 0H
    assert invariants(a) == invariants(b)


# -- the shared layout of a shape and support ------------------------------------


def test_algebras_of_one_shape_and_support_share_basis_and_index():
    """The basis and index depend on the shape and support alone: every degree
    tuple on them, and the shifted copy over an equal support, reads one copy."""
    grp = build_abelian([2, 4])
    d = pauli(2, grp, ["(1,0)", "(0,2)"])
    p = make_presentation(d, [2, 1], ["(0,0)", "(1,3)", "(0,1)"])
    q = make_presentation(d, [2, 1], ["(1,1)", "(0,0)", "(0,0)"])
    shifted = shift_presentation(p, "(0,1)")  # abelian: a new support object, equal to d's
    a, b, c = realize(p), realize(q), realize(shifted)
    assert shifted.division.support is not d.support
    assert a.index is b.index is c.index and a.basis is b.basis is c.basis
    assert a.degree != b.degree
    want = realize_by_basis(p)
    assert (a.basis, a.degree, a.index) == (want.basis, want.degree, want.index)


def test_equal_shapes_hash_once_and_share_one_layout():
    """A shape's hash is (blocks,)'s, computed once on construction: equal shapes
    from a tuple and from a list, over equal supports of groups from different
    sources, realize from one cached layout, which holds their generators and
    generator products."""
    grp = build_abelian([2, 4])
    same = validate_table([list(row) for row in grp.table])
    shape = BlockShape((2, 1))
    p = make_presentation(pauli(2, grp, ["(1,0)", "(0,2)"]), shape, [0, 1, 2])
    q = make_presentation(pauli(2, same, [4, 2]), [2, 1], [3, 0, 7])
    assert q.shape == shape and hash(q.shape) == hash(shape) == hash(((2, 1),))
    assert q.shape is not shape and q.division.support == p.division.support
    algebras._layout.cache_clear()
    a, b = realize(p), realize(q)
    assert a.index is b.index and a.basis is b.basis
    assert a.generator_products() is b.generator_products()
    assert a.generators() == b.generators()
    assert algebras._layout.cache_info().currsize == 1


def test_other_shapes_and_supports_get_their_own_layouts():
    """A different support or shape gets a separate basis and index, each with
    the contents of a basis built afresh."""
    grp = build_abelian([4])
    trivial = trivial_division(grp)
    half = GradedDivisionAlgebra(trivial_cocycle(subgroup_closure(grp, [2]), 1))
    base = make_presentation(trivial, [1, 1], [0, 1])
    others = [
        make_presentation(half, [1, 1], [0, 1]),  # another support
        make_presentation(trivial, [2], [0, 1]),  # another shape, same n
        make_presentation(trivial, [1, 2], [0, 1, 3]),
    ]
    algs = [realize(p) for p in [base, *others]]
    for i, alg in enumerate(algs):
        want = realize_by_basis(alg.presentation)
        assert list(alg.index.items()) == list(want.index.items())
        assert (alg.basis, alg.degree) == (want.basis, want.degree)
        for other in algs[i + 1 :]:
            assert alg.index is not other.index and alg.basis is not other.basis
