import copy
import dataclasses
import itertools
import pickle
import random
import sys
import threading
from unittest import mock

import pytest
from conftest import (
    eager_invariant_mismatch,
    make_sym,
    products_read,
    verify_witness_by_dict,
    witness_with_map,
)

import flagiso.algebras
import flagiso.cocycles
import flagiso.iso
from flagiso import (
    EQUIVALENT,
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    BasisElem,
    Corrector,
    GradedDivisionAlgebra,
    GroupMismatch,
    InvalidInput,
    InvariantMismatch,
    IsoWitness,
    SearchExhausted,
    Subgroup,
    WitnessReport,
    build_abelian,
    build_witness,
    check_grading,
    classify,
    compose_witness,
    enumerate_classes,
    equiv_elementary,
    invariants,
    invert_witness,
    is_corrector,
    iso_algebras,
    iso_division,
    iso_pairs,
    make_presentation,
    pauli,
    realize,
    shift_conjugate,
    subgroup_closure,
    transport,
    trivial_division,
    validate_cocycle,
    verify_witness,
)
from flagiso.iso import _certified, _shift_outcomes

# -- helpers -----------------------------------------------------------------


def sign_division(grp, generator):
    """Order-two support with x_h^2 = -1."""
    sub = subgroup_closure(grp, [generator])
    assert len(sub.members) == 2
    tbl = [[0, 0], [0, 1]]
    return GradedDivisionAlgebra(validate_cocycle(sub, 2, tbl))


def random_transform(rng, p):
    """A flag-preserving rewrite of p: shift, in-block shuffle, coset rewrites."""
    grp = p.group
    members = p.division.support.members
    g = rng.randrange(grp.size)
    degrees = list(p.degrees)
    out = []
    for blk in p.shape.block_positions():
        entries = [degrees[i] for i in blk]
        rng.shuffle(entries)
        out.extend(grp.mul(grp.mul(d, rng.choice(members)), g) for d in entries)
    return make_presentation(shift_conjugate(p.division, g), p.shape.blocks, out)


# -- worked decisions ---------------------------------------------------------


def test_two_step_flags_over_z2():
    grp = build_abelian([2])
    d = trivial_division(grp)
    p = make_presentation(d, [1, 1], [0, 1])
    q = make_presentation(d, [1, 1], [1, 0])
    v = iso_algebras(p, q)
    assert v.kind == ISOMORPHIC
    w = v.witness
    assert w.shift == 1
    assert w.sigma == (0, 1)
    assert w.correctors == (0, 0)
    report = verify_witness(realize(p), realize(q), w)
    assert report.ok and report.checked_pairs == 9


def test_self_isomorphism_is_the_identity_witness():
    grp = build_abelian([2])
    p = make_presentation(trivial_division(grp), [1, 1], [0, 1])
    v = iso_algebras(p, p)
    assert v.kind == ISOMORPHIC
    w = v.witness
    assert w.shift == grp.identity
    assert w.sigma == (0, 1)
    assert all(exp == 0 for _, exp in w.mapping.values())


def test_sigma_convention_maps_target_to_source():
    z4 = build_abelian([4])
    d = trivial_division(z4)
    p = make_presentation(d, [2], [0, 1])
    q = make_presentation(d, [2], [1, 0])
    v = iso_algebras(p, q)
    assert v.kind == ISOMORPHIC
    w = v.witness
    assert w.shift == 0
    assert w.sigma == (1, 0)  # target position 0 is matched to source position 1
    assert w.mapping[BasisElem(0, 0, 0)] == (BasisElem(1, 1, 0), 0)


def test_nontrivial_correctors_inside_support():
    z4 = build_abelian([4])
    d = sign_division(z4, 2)
    p = make_presentation(d, [1, 1], [0, 2])
    q = make_presentation(d, [1, 1], [0, 0])
    v = iso_algebras(p, q)
    assert v.kind == ISOMORPHIC
    assert v.witness.shift == 0
    assert v.witness.correctors == (0, 2)
    assert verify_witness(realize(p), realize(q), v.witness).ok


def test_cohomologous_division_parts_are_isomorphic():
    grp = build_abelian([2])
    sub = Subgroup(grp, (0, 1))
    plain = GradedDivisionAlgebra(validate_cocycle(sub, 4, [[0, 0], [0, 0]]))
    minus = GradedDivisionAlgebra(validate_cocycle(sub, 4, [[0, 0], [0, 2]]))
    p = make_presentation(plain, [1, 1], [0, 1])
    q = make_presentation(minus, [1, 1], [0, 1])
    v = iso_algebras(p, q)
    assert v.kind == ISOMORPHIC
    assert v.witness.mu.exp_of(1) in (1, 3)  # 2u = -2 (mod 4)
    assert verify_witness(realize(p), realize(q), v.witness).ok


def test_chain_flags_over_z3_not_isomorphic():
    grp = build_abelian([3])
    d = trivial_division(grp)
    p = make_presentation(d, [1, 1], [0, 1])
    q = make_presentation(d, [1, 1], [0, 2])
    v = iso_algebras(p, q)
    assert v.kind == NOT_ISOMORPHIC
    cert = v.certificate
    assert isinstance(cert, SearchExhausted)
    assert cert.shifts_tried == 3
    assert "searched all 3 shifts" in cert.detail
    assert cert.invariant_mismatch == InvariantMismatch("dim at degree (1): 0 vs 1")


@pytest.mark.parametrize(
    "blocks, degrees, degrees2, power",
    [((1, 1, 1), [0, 0, 1], [0, 1, 0], 2), ((1, 2, 1), [0, 0, 1, 0], [0, 1, 1, 0], 1)],
)
def test_radical_power_certificate(blocks, degrees, degrees2, power):
    # equal dimensions at every degree, but the cells of gap >= power carry
    # different degrees
    d = trivial_division(build_abelian([2]))
    v = iso_algebras(make_presentation(d, blocks, degrees), make_presentation(d, blocks, degrees2))
    assert v.kind == NOT_ISOMORPHIC
    assert v.certificate.shifts_tried == 2
    assert v.certificate.invariant_mismatch == InvariantMismatch(
        f"radical power {power} dimension profile differs"
    )


def test_shape_mismatch_certificate():
    grp = build_abelian([2])
    d = trivial_division(grp)
    p = make_presentation(d, [1, 1], [0, 1])
    q = make_presentation(d, [2], [0, 1])
    v = iso_algebras(p, q)
    assert v.kind == NOT_ISOMORPHIC
    assert v.certificate == InvariantMismatch("block shapes differ: (1, 1) vs (2,)")


def test_cross_group_raises():
    p = make_presentation(trivial_division(build_abelian([2])), [1], [0])
    q = make_presentation(trivial_division(build_abelian([3])), [1], [0])
    with pytest.raises(GroupMismatch):
        iso_algebras(p, q)
    with pytest.raises(GroupMismatch):
        iso_pairs(p, q)


def test_same_invariants_yet_not_isomorphic_gets_bare_exhaustion():
    # (e,e,a) and (e,a,a) over Z_4 share every dimension invariant, but the
    # entry pattern (x,x,y) cannot be translated onto (x,y,y)
    grp = build_abelian([4])
    d = trivial_division(grp)
    p = make_presentation(d, [1, 1, 1], [0, 0, 1])
    q = make_presentation(d, [1, 1, 1], [0, 1, 1])
    from flagiso import invariants

    assert invariants(realize(p)) == invariants(realize(q))
    v = iso_algebras(p, q)
    assert v.kind == NOT_ISOMORPHIC
    assert v.certificate.shifts_tried == 4
    assert v.certificate.invariant_mismatch is None


# -- pair decisions -------------------------------------------------------------


def test_pairs_rank_mismatch():
    grp = build_abelian([2])
    d = trivial_division(grp)
    p = make_presentation(d, [1], [0])
    q = make_presentation(d, [1, 1], [0, 1])
    v = iso_pairs(p, q)
    assert v.kind == NOT_ISOMORPHIC
    assert v.certificate == InvariantMismatch("module ranks differ: 1 vs 2")


def test_pairs_ignore_blocks():
    grp = build_abelian([2])
    d = trivial_division(grp)
    p = make_presentation(d, [1, 1], [0, 1])
    q = make_presentation(d, [2], [1, 0])
    assert iso_algebras(p, q).kind == NOT_ISOMORPHIC  # shapes differ
    v = iso_pairs(p, q)
    assert v.kind == ISOMORPHIC
    assert v.witness.source.shape.blocks == (2,)  # flattened copies
    assert verify_witness(
        realize(v.witness.source), realize(v.witness.target), v.witness
    ).ok


def test_pairs_full_support_cosets_always_match():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    p = make_presentation(d, [2], [0, 2])
    q = make_presentation(d, [2], [1, 3])
    v = iso_pairs(p, q)
    assert v.kind == ISOMORPHIC


def test_pairs_division_class_blocks():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    plain = GradedDivisionAlgebra(
        validate_cocycle(d.support, 2, [[0] * 4 for _ in range(4)])
    )
    p = make_presentation(d, [1], [0])
    q = make_presentation(plain, [1], [0])
    v = iso_pairs(p, q)
    assert v.kind == NOT_ISOMORPHIC
    assert isinstance(v.certificate, SearchExhausted)
    assert v.certificate.shifts_tried == 1
    assert "not isomorphic" in v.certificate.detail


def test_pairs_coset_mismatch():
    z4 = build_abelian([4])
    d = sign_division(z4, 2)
    p = make_presentation(d, [1], [0])
    q = make_presentation(d, [1], [1])
    v = iso_pairs(p, q)
    assert v.kind == NOT_ISOMORPHIC
    assert "left-coset multisets differ" in v.certificate.detail


# -- witness construction and verification ------------------------------------------


def z2_witness():
    grp = build_abelian([2])
    d = trivial_division(grp)
    p = make_presentation(d, [1, 1], [0, 1])
    q = make_presentation(d, [1, 1], [1, 0])
    return p, q, iso_algebras(p, q).witness


def test_build_witness_rejects_bad_sigma():
    p, q, w = z2_witness()
    with pytest.raises(InvalidInput) as ei:
        build_witness(p, q, w.shift, (0, 0), w.correctors, w.mu)
    assert ei.value.code == "invalid-witness-data"
    assert "permutation" in str(ei.value)


@pytest.mark.parametrize("sigma", [(True, 0), (1.0, 0), (0, "a"), (1, None)])
def test_build_witness_rejects_non_int_sigma(sigma):
    """Only plain ints are positions: (True, 0) would pass as the valid (1, 0)."""
    d = trivial_division(build_abelian([2]))
    p = make_presentation(d, [2], [0, 1])
    q = make_presentation(d, [2], [1, 0])
    w = iso_algebras(p, q).witness
    assert w.sigma == (1, 0)
    with pytest.raises(InvalidInput) as ei:
        build_witness(p, q, w.shift, sigma, w.correctors, w.mu)
    assert ei.value.code == "invalid-witness-data"
    assert str(ei.value) == "invalid witness data: sigma is not a permutation"


def test_build_witness_rejects_block_violating_sigma():
    grp = build_abelian([2])
    d = trivial_division(grp)
    p = make_presentation(d, [1, 1], [0, 0])
    mu = Corrector(d.support, 1, (0,))
    with pytest.raises(InvalidInput) as ei:
        build_witness(p, p, 0, (1, 0), (0, 0), mu)
    assert "preserve blocks" in str(ei.value)


def test_build_witness_rejects_foreign_correctors():
    p, q, w = z2_witness()
    with pytest.raises(InvalidInput) as ei:
        build_witness(p, q, w.shift, w.sigma, (0, 1), w.mu)  # 1 is outside supp {e}
    assert "division support" in str(ei.value)


def test_build_witness_rejects_broken_tuple_relation():
    p, q, w = z2_witness()
    with pytest.raises(InvalidInput) as ei:
        build_witness(p, q, 0, w.sigma, w.correctors, w.mu)  # wrong shift
    assert "tuple relation fails at position 1" in str(ei.value)


def test_build_witness_rejects_non_corrector():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    p = make_presentation(d, [1], [0])
    bad_mu = Corrector(d.support, 2, (0, 1, 0, 0))  # not a character of the support
    with pytest.raises(InvalidInput) as ei:
        build_witness(p, p, 0, (0,), (0,), bad_mu)
    assert "not a corrector" in str(ei.value)


def test_build_witness_rejects_wrong_mu_support():
    p, q, w = z2_witness()
    other = Corrector(Subgroup(p.group, (0, 1)), 1, (0, 0))
    with pytest.raises(InvalidInput) as ei:
        build_witness(p, q, w.shift, w.sigma, w.correctors, other)
    assert "support" in str(ei.value)


def test_build_witness_rejects_endpoints_over_two_groups():
    p, _, w = z2_witness()
    q = make_presentation(trivial_division(build_abelian([3])), [1, 1], [0, 1])
    with pytest.raises(GroupMismatch) as ei:
        build_witness(p, q, w.shift, w.sigma, w.correctors, w.mu)
    assert ei.value.code == "group-mismatch"
    assert str(ei.value) == "witness endpoints are graded by different groups"


def test_build_witness_rejects_differing_shapes():
    p, _, w = z2_witness()
    q = make_presentation(p.division, [2], [1, 0])
    with pytest.raises(InvalidInput) as ei:
        build_witness(p, q, w.shift, w.sigma, w.correctors, w.mu)
    assert ei.value.code == "invalid-witness-data"
    assert str(ei.value) == "invalid witness data: block shapes differ"


def test_build_witness_rejects_a_shift_that_moves_the_support():
    """Over Z2 x Z2 every shift fixes <(1,0)>, so it never reaches <(0,1)>."""
    grp = build_abelian([2, 2])
    d, d2 = sign_division(grp, 2), sign_division(grp, 1)
    p, q = make_presentation(d, [1], [0]), make_presentation(d2, [1], [0])
    with pytest.raises(InvalidInput) as ei:
        build_witness(p, q, 0, (0,), (0,), Corrector(d2.support, 2, (0, 0)))
    assert ei.value.code == "invalid-witness-data"
    assert str(ei.value) == (
        "invalid witness data: the shift does not carry the support onto the target support"
    )


def test_invert_witness_rejects_a_shift_out_of_range():
    """build_witness resolves its shift as an element first; a witness built
    otherwise reaches the range check where its data is checked."""
    _, _, w = z2_witness()
    with pytest.raises(InvalidInput) as ei:
        invert_witness(dataclasses.replace(w, shift=2))
    assert ei.value.code == "invalid-witness-data"
    assert str(ei.value) == "invalid witness data: shift out of range"


def test_verify_rejects_algebras_of_different_dimensions():
    p, _, w = z2_witness()
    r = make_presentation(p.division, [1, 1, 1], [0, 1, 0])
    report = verify_witness(realize(p), realize(r), w)
    assert report == WitnessReport(False, 0, ("algebras have different dimensions",))


def test_verify_refuses_one_shape_over_supports_of_different_sizes():
    grp = build_abelian([2])
    p = make_presentation(trivial_division(grp), [1], [0])
    q = make_presentation(sign_division(grp, 1), [1], [0])
    w = IsoWitness(p, q, 0, (0,), (0,), Corrector(q.division.support, 2, (0, 0)), 2, (0,), (0,))
    report = verify_witness(realize(p), realize(q), w)
    assert report == WitnessReport(False, 0, ("algebras have different dimensions",))


def test_no_bijection_over_supports_of_different_sizes_is_accepted():
    """Blocks (2) over a trivial support against the Klein clock-and-shift
    division algebra, both of dimension 4, each way: every bijection of bases
    is refused, as the dict verifier refuses it, by the map check reading each
    side's own support."""
    grp = build_abelian([2, 2])
    split = make_presentation(trivial_division(grp), [2], [0, 1])
    klein = make_presentation(pauli(2, grp, [2, 1]), [1], [0])
    for p, q in ((split, klein), (klein, split)):
        alg, alg2 = realize(p), realize(q)
        assert alg.dim == alg2.dim == 4
        mu = Corrector(q.division.support, 2, (0,) * len(q.division.support.members))
        for images in itertools.permutations(range(4)):
            w = IsoWitness(p, q, 0, (0,) * p.shape.n, (0,) * p.shape.n, mu, 2, images, (0,) * 4)
            report = verify_witness(alg, alg2, w)
            assert not report.ok and report == verify_witness_by_dict(alg, alg2, w)


def test_verify_refuses_a_map_off_the_target_basis_or_not_injective():
    p, q, w = z2_witness()
    alg, alg2 = realize(p), realize(q)
    first, second = alg.basis[:2]
    outside = BasisElem(p.shape.n, 0, 0)  # no basis has row n
    off = witness_with_map(w, {**w.mapping, first: (outside, 0)})
    assert verify_witness(alg, alg2, off) == WitnessReport(
        False, 0, (f"image of {tuple(first)} is not a basis element: {tuple(outside)}",)
    )
    twice = witness_with_map(w, {**w.mapping, first: w.mapping[second]})
    report = verify_witness(alg, alg2, twice)
    assert report == WitnessReport(False, 0, ("map is not injective on basis elements",))


def test_verify_rejects_scalar_corruption():
    p, q, w = z2_witness()
    bad_map = dict(w.mapping)
    key = next(iter(bad_map))
    tgt, exp = bad_map[key]
    bad_map[key] = (tgt, exp + 1)
    bad = witness_with_map(w, bad_map, 2)
    report = verify_witness(realize(p), realize(q), bad)
    assert not report.ok
    assert any("scalar mismatch" in f for f in report.failures)


def test_verify_rejects_degree_corruption():
    p, q, w = z2_witness()
    bad_map = dict(w.mapping)
    bad_map[BasisElem(0, 1, 0)] = (BasisElem(0, 0, 0), 0)  # off-diagonal to diagonal
    bad = witness_with_map(w, bad_map)
    report = verify_witness(realize(p), realize(q), bad)
    assert not report.ok
    assert any("injective" in f or "degree mismatch" in f for f in report.failures)


def test_verify_rejects_partial_map():
    p, q, w = z2_witness()
    bad_map = dict(w.mapping)
    bad_map.pop(next(iter(bad_map)))
    bad = witness_with_map(w, bad_map)
    report = verify_witness(realize(p), realize(q), bad)
    assert not report.ok
    assert "exactly the source basis" in report.failures[0]


def test_verify_rejects_non_embedding_scalar_order():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    p = make_presentation(d, [1], [0])
    zero = Corrector(d.support, 2, (0, 0, 0, 0))
    w = build_witness(p, p, 0, (0,), (0,), zero)
    bad = witness_with_map(w, dict(w.mapping), 3)
    report = verify_witness(realize(p), realize(p), bad)
    assert not report.ok
    assert "does not embed" in report.failures[0]


@pytest.mark.parametrize("order", [0, -2])
def test_verify_refuses_scalar_orders_below_one(order):
    """Order 0 once raised ZeroDivisionError, and -2 let the Klein
    clock-and-shift witness pass; neither embeds a root group."""
    d = pauli(2, build_abelian([2, 2]), ["(1,0)", "(0,1)"])
    p = make_presentation(d, [1, 1], ["(0,0)", "(1,0)"])
    q = make_presentation(d, [1, 1], ["(0,1)", "(1,1)"])
    w = dataclasses.replace(iso_algebras(p, q).witness, scalar_order=order)
    report = verify_witness(realize(p), realize(q), w)
    assert report == WitnessReport(
        False, 0, (f"scalar order {order} does not embed both mu_2 and mu_2",)
    )


def walked_products(alg, alg2, w):
    """verify_witness's report, and the number of basis products its walks yielded."""
    with products_read() as counts:
        report = verify_witness(alg, alg2, w)
    return report, sum(counts)


@pytest.mark.parametrize(
    "division, blocks, dim, generator_products, all_products",
    [
        (lambda: pauli(2, build_abelian([2, 4]), ["(1,0)", "(0,2)"]), (2, 2, 2), 96, 216, 1280),
        (lambda: trivial_division(make_sym(4)[0]), (4, 4), 48, 76, 256),
    ],
    ids=["Z2xZ4 pauli (2,2,2)", "S4 trivial (4,4)"],
)
def test_a_valid_witness_checks_scalars_on_generator_products_only(
    division, blocks, dim, generator_products, all_products
):
    """A YES walks the products s*b with s a generator, not every nonzero product,
    and its report still covers all dim^2 basis pairs."""
    rng = random.Random(7)
    d = division()
    p = make_presentation(d, blocks, [rng.randrange(d.group.size) for _ in range(sum(blocks))])
    q = random_transform(rng, p)
    w = iso_algebras(p, q).witness
    alg, alg2 = realize(p), realize(q)
    report, walked = walked_products(alg, alg2, w)
    assert alg.dim == dim
    assert report.ok and report.checked_pairs == dim**2
    assert sum(1 for _ in alg.nonzero_products()) == all_products
    assert walked == generator_products < all_products


def test_generator_products_are_built_once_per_shape_and_support():
    """Two YES queries on one shape and support build no layout until their
    maps are read, and then the shared generator products once, with the
    layout; check_grading and verify_witness both read them."""
    layout = flagiso.algebras._layout
    layout.cache_clear()
    rng = random.Random(3)
    d = pauli(2, build_abelian([2, 4]), ["(1,0)", "(0,2)"])
    tuples = [[rng.randrange(8) for _ in range(3)] for _ in range(2)]
    sources = [make_presentation(d, (2, 1), t) for t in tuples]
    verdicts = [iso_algebras(p, random_transform(rng, p)) for p in sources]
    assert [v.kind for v in verdicts] == [ISOMORPHIC, ISOMORPHIC]
    assert layout.cache_info().misses == 0
    for v in verdicts:
        assert v.witness.mapping  # the first read builds the map and checks it on the layout
    assert layout.cache_info().misses == 1
    p = sources[0]
    q = random_transform(rng, p)
    alg, alg2 = realize(p), realize(q)
    assert alg.generator_products() is alg2.generator_products()
    products = len(layout(p.shape, d.support).walk[0])
    with products_read() as counts:
        assert check_grading(alg).ok
    assert counts == [products]
    with products_read() as counts:
        assert verify_witness(alg, alg2, iso_algebras(p, q).witness).ok
    assert counts == [products]  # the unread map is built and checked on this walk alone
    assert layout.cache_info().misses == 1


# -- scalar ambiguity ------------------------------------------------------------


def test_character_twists_give_distinct_valid_witnesses():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    p = make_presentation(d, [1], [0])
    alg = realize(p)
    zero = Corrector(d.support, 2, (0, 0, 0, 0))
    chi = Corrector(d.support, 2, (0, 1, 0, 1))  # the character trivial on u
    w0 = build_witness(p, p, 0, (0,), (0,), zero)
    w1 = build_witness(p, p, 0, (0,), (0,), chi)
    assert verify_witness(alg, alg, w0).ok
    assert verify_witness(alg, alg, w1).ok
    assert w0.mapping != w1.mapping  # same combinatorics, different scalars


# -- inversion and composition ------------------------------------------------------


def test_invert_witness_z2():
    p, q, w = z2_witness()
    wi = invert_witness(w)
    assert wi.source is q and wi.target is p
    assert wi.shift == p.group.inv(w.shift)
    assert verify_witness(realize(q), realize(p), wi).ok


def test_compose_with_inverse_is_identity_shift():
    p, q, w = z2_witness()
    wi = invert_witness(w)
    round_trip = compose_witness(w, wi)
    assert round_trip.source is p and round_trip.target is p
    assert round_trip.shift == p.group.identity
    assert verify_witness(realize(p), realize(p), round_trip).ok


def test_compose_rejects_endpoint_mismatch():
    p, q, w = z2_witness()
    with pytest.raises(InvalidInput) as ei:
        compose_witness(w, w)
    assert ei.value.code == "invalid-witness-data"


def test_invert_and_compose_randomized():
    rng = random.Random(6021)
    grp = build_abelian([4])
    divisions = [trivial_division(grp), sign_division(grp, 2)]
    for trial in range(12):
        d = divisions[trial % 2]
        n = rng.randint(2, 4)
        cut = rng.randint(1, n - 1)
        blocks = (cut, n - cut)
        p = make_presentation(d, blocks, [rng.randrange(4) for _ in range(n)])
        q = random_transform(rng, p)
        r = random_transform(rng, q)
        v1 = iso_algebras(p, q)
        v2 = iso_algebras(q, r)
        assert v1.kind == ISOMORPHIC and v2.kind == ISOMORPHIC
        w1, w2 = v1.witness, v2.witness
        assert verify_witness(realize(q), realize(p), invert_witness(w1)).ok
        chained = compose_witness(w1, w2)
        assert chained.target.degrees == r.degrees
        assert verify_witness(realize(p), realize(r), chained).ok


def test_transform_batch_over_klein_pauli():
    rng = random.Random(40961)
    grp = build_abelian([2, 2])
    d = pauli(2, grp, [2, 1])
    for _ in range(8):
        n = rng.randint(1, 3)
        blocks = tuple(1 for _ in range(n))
        p = make_presentation(d, blocks, [rng.randrange(4) for _ in range(n)])
        q = random_transform(rng, p)
        v = iso_algebras(p, q)
        assert v.kind == ISOMORPHIC
        assert verify_witness(realize(p), realize(q), v.witness).ok


def test_decisions_are_deterministic():
    grp = build_abelian([4])
    d = sign_division(grp, 2)
    p = make_presentation(d, [1, 1], [0, 1])
    q = make_presentation(d, [1, 1], [2, 3])
    v1 = iso_algebras(p, q)
    v2 = iso_algebras(p, q)
    assert v1.kind == v2.kind
    if v1.kind == ISOMORPHIC:
        assert v1.witness.shift == v2.witness.shift
        assert v1.witness.sigma == v2.witness.sigma
        assert v1.witness.mapping == v2.witness.mapping


# -- realization count ------------------------------------------------------------


def test_engine_witnesses_are_not_revalidated(monkeypatch):
    """The engine builds its witness from data it solved; build_witness checks
    data from callers, and verify_witness checks every YES either way."""
    calls = []
    monkeypatch.setattr(
        "flagiso.iso.is_corrector", lambda *args: calls.append(args) or is_corrector(*args)
    )
    grp = build_abelian([4])
    d = sign_division(grp, 2)
    p = make_presentation(d, [1, 1], [0, 1])
    q = make_presentation(d, [1, 1], [2, 3])
    yes = iso_algebras(p, q)
    assert yes.kind == ISOMORPHIC and len(calls) == 0
    w = yes.witness
    built = build_witness(p, q, w.shift, w.sigma, w.correctors, w.mu)
    assert len(calls) == 1
    assert (built.sigma, built.correctors, built.mapping) == (w.sigma, w.correctors, w.mapping)


def test_each_presentation_is_realized_once_per_decision(monkeypatch):
    """A YES is certified on the presentations and realizes nothing, nor does a
    NO, building a witness or an equivalence, whose check reads the presentations;
    none of them checks a map, as none reads one.  flagiso.iso imports no
    realize, so the spy sits on its one home, flagiso.algebras."""
    calls = []
    monkeypatch.setattr(flagiso.algebras, "realize", lambda p: calls.append(p) or realize(p))
    checks = counting(monkeypatch, "_map_report")

    def count(fn, *args):
        calls.clear()
        out = fn(*args)
        assert checks == []
        return out, len(calls)

    grp = build_abelian([4])
    d = sign_division(grp, 2)
    p = make_presentation(d, [1, 1], [0, 1])
    q = make_presentation(d, [1, 1], [2, 3])
    yes, n_yes = count(iso_algebras, p, q)
    assert yes.kind == ISOMORPHIC and n_yes == 0
    no, n_no = count(iso_algebras, p, make_presentation(d, [1, 1], [0, 0]))
    assert no.kind == NOT_ISOMORPHIC and no.certificate.invariant_mismatch and n_no == 0
    w = yes.witness
    assert count(build_witness, p, q, w.shift, w.sigma, w.correctors, w.mu)[1] == 0
    inv, n_inv = count(invert_witness, w)
    assert n_inv == 0
    assert count(compose_witness, w, inv)[1] == 0
    pairs, n_pairs = count(iso_pairs, p, q)
    assert pairs.kind == ISOMORPHIC and n_pairs == 0
    t = trivial_division(grp)
    eq, n_eq = count(
        equiv_elementary, make_presentation(t, [1, 1], [0, 1]), make_presentation(t, [1, 1], [0, 3])
    )
    assert eq.kind == EQUIVALENT and n_eq == 0


def test_degrees_are_computed_once_per_side(monkeypatch):
    """A YES, from iso_algebras or iso_pairs, computes no degree array, as its
    check reads the generators' degrees off the presentations; a NO none, as it
    reads its invariants off the coset configuration; and invariants(realize(p))
    once, in realize, as invariants reads the coset configuration too."""
    calls = []
    degrees = flagiso.algebras._degrees
    monkeypatch.setattr(flagiso.algebras, "_degrees", lambda p: calls.append(p) or degrees(p))
    grp = build_abelian([4])
    d = sign_division(grp, 2)
    p = make_presentation(d, [1, 1], [0, 1])
    q = make_presentation(d, [1, 1], [2, 3])
    r = make_presentation(d, [1, 1], [0, 0])
    assert iso_algebras(p, q).kind == ISOMORPHIC and calls == []
    assert iso_pairs(p, q).kind == ISOMORPHIC and calls == []
    no = iso_algebras(p, r)
    assert no.kind == NOT_ISOMORPHIC and no.certificate.invariant_mismatch and calls == []
    calls.clear()
    invariants(realize(p))
    assert calls == [p]


def test_each_conjugation_map_is_decided_once(monkeypatch):
    """The shift search solves the division question at most once per distinct
    map h -> g^-1 h g on the support among the shifts the blocks admit, not
    once per shift: a NO decides each such map once, and none when no shift
    is admitted."""
    calls = []
    monkeypatch.setattr(
        "flagiso.iso.iso_division", lambda d, d2: calls.append(d) or iso_division(d, d2)
    )

    def count(fn, *args):
        calls.clear()
        out = fn(*args)
        return out, len(calls)

    def conjugation_maps(d, shifts=None):
        grp = d.group
        shifts = grp.elements() if shifts is None else shifts
        return len({tuple(grp.conj(h, g) for h in d.support.members) for g in shifts})

    def admitted(p, q):
        """The shifts g at which each block's least source class is met by a
        target degree shifted by g^-1, by the definition."""
        grp, rep = p.group, p.division.support.coset_rep
        blocks = p.shape.block_positions()
        least = [min(rep[p.degrees[i]] for i in b) for b in blocks]
        return [
            g
            for g in grp.elements()
            if all(
                c in {rep[grp.mul(q.degrees[i], grp.inv(g))] for i in b}
                for b, c in zip(blocks, least)
            )
        ]

    z3z6 = build_abelian([3, 6])
    d = pauli(3, z3z6, ["(1,0)", "(0,2)"])
    s3 = make_sym(3)[0]
    sub = Subgroup(s3, (s3.identity, s3.elem_by_name("102").index))
    t = GradedDivisionAlgebra(validate_cocycle(sub, 2, [[0, 0], [0, 1]]))
    for division, blocks, degrees, n_admitted, n_maps in (
        (d, [1, 1], ([0, 1], [0, 0]), 0, 0),  # no shift admitted: nothing decided
        (t, [1, 1], ([0, 1], [0, 0]), 0, 0),
        (d, [2], ([0, 1], [0, 0]), 9, 1),  # abelian: every shift gives the same D^g
        (t, [3], ([0, 0, 0], [0, 2, 4]), 4, 2),
        (t, [3], ([0, 0, 0], [2, 3, 4]), 6, 3),  # |S3 : C(H)| conjugates of {e, (01)}
    ):
        p, q = (make_presentation(division, blocks, tup) for tup in degrees)
        no, n_no = count(iso_algebras, p, q)
        assert no.kind == NOT_ISOMORPHIC
        assert no.certificate.shifts_tried == division.group.size
        shifts = admitted(p, q)
        assert len(shifts) == n_admitted
        assert n_no == conjugation_maps(division, shifts) == n_maps

    for division in (d, t, trivial_division(s3)):
        flagiso.iso._coset_action.cache_clear()  # a cached shift action solves nothing
        assert count(classify, division.group, [1], division)[1] == conjugation_maps(division)


def test_shifts_that_move_nothing_transport_and_eliminate_nothing():
    """Over a central support every shift compares D itself with D': a NO over a
    pair sharing one D builds no shifted support, transports no cocycle and
    looks up or diagonalizes no system, as D against D is identical."""
    s4 = make_sym(4)[0]
    z3z6 = build_abelian([3, 6])
    for d, blocks, degrees in (
        (pauli(3, z3z6, ["(1,0)", "(0,2)"]), [1, 1], ([0, 1], [0, 0])),
        (trivial_division(s4), [1, 2], ([0, 1, 2], [0, 0, 1])),
    ):
        p, q = (make_presentation(d, blocks, tup) for tup in degrees)
        spies = [
            mock.patch(name, wraps=wrapped)
            for name, wrapped in (
                ("flagiso.division.transport", transport),
                ("flagiso.iso.shift_conjugate", shift_conjugate),
                ("flagiso.cocycles._corrector_system", flagiso.cocycles._corrector_system),
                ("flagiso.cocycles._diagonalize", flagiso.cocycles._diagonalize),
            )
        ]
        with spies[0] as moved, spies[1] as shifted, spies[2] as looked_up, spies[3] as eliminated:
            no = iso_algebras(p, q)
        assert no.kind == NOT_ISOMORPHIC and no.certificate.shifts_tried == d.group.size
        assert moved.call_count == shifted.call_count == 0
        assert looked_up.call_count == eliminated.call_count == 0


def test_each_moving_conjugation_map_is_shifted_once():
    """Over the Klein four-group of S4 that conjugation moves, a search over
    every shift of G builds D^g once per distinct conjugation map other than
    the identity; the shifts that centralize the support compare D itself."""
    s4 = make_sym(4)[0]
    d = pauli(2, s4, ["1023", "0132"])
    members = d.support.members
    assert not d.support.central

    def conjugation_map(g):
        return tuple(s4.conj(h, g) for h in members)

    maps = {conjugation_map(g) for g in s4.elements()}
    p, q = (make_presentation(d, [1, 1], tup) for tup in ([0, 1], [5, 7]))
    with mock.patch("flagiso.iso.shift_conjugate", wraps=shift_conjugate) as shifted:
        records = list(_shift_outcomes(p, q, s4.elements()))  # every shift, admitted or not
    assert [r.g for r in records] == list(s4.elements())
    moving = [conjugation_map(c.args[1]) for c in shifted.call_args_list]
    assert len(moving) == len(set(moving)) == len(maps) - 1 == 5  # |S4 : C(V)| = 6 maps
    assert members not in moving


def test_cosets_are_paired_once_per_left_coset_of_the_inverse_shift():
    """The blockwise pairing depends on g only through the coset g^-1 H, so a
    search over every shift of G makes at most |G:H| pairings however many
    shifts find a corrector.
    Over one block each pairing sorts the target positions once, and the
    source positions are sorted once per search."""
    s4 = make_sym(4)[0]
    z6z6 = build_abelian([6, 6])
    for d, n_records, most in (
        (pauli(3, z6z6, ["(2,0)", "(0,2)"]), 36, 4),  # central: every shift finds a corrector
        (pauli(2, s4, ["1023", "0132"]), 24, 6),  # moved: the normalizer's shifts do
    ):
        grp = d.group
        assert len(d.support.members) * most == grp.size
        outside = next(x for x in grp.elements() if x not in d.support.index)
        p, q = (make_presentation(d, [2], tup) for tup in ([0, outside], [0, 0]))
        with mock.patch("flagiso.iso.sorted", create=True, wraps=sorted) as sorts:
            records = list(_shift_outcomes(p, q, grp.elements()))  # every shift, admitted or not
        assert [r.g for r in records] == list(grp.elements()) and len(records) == n_records
        assert all(r.sigma is None for r in records)
        with_corrector = sum(r.mu is not None for r in records)
        assert with_corrector > most  # one pairing per such shift would break the bound
        assert 1 <= sorts.call_count - 1 <= most


# -- the map, built and checked on first read ------------------------------------


def counting(monkeypatch, name):
    """Count the calls of flagiso.iso.<name> into the returned list."""
    calls = []
    original = getattr(flagiso.iso, name)
    monkeypatch.setattr(flagiso.iso, name, lambda *args: calls.append(args) or original(*args))
    return calls


def passes(checks) -> tuple[int, int]:
    """The deciding and the naming calls among calls of _map_report."""
    return sum(not every for *_, every in checks), sum(every for *_, every in checks)


def test_a_yes_builds_and_checks_its_map_on_first_read_only(monkeypatch):
    """A YES is decided on the search's data: until its map is read it builds
    no table and makes no decision; the first read of images, exponents or
    mapping makes one of each, and later reads make none."""
    tables = counting(monkeypatch, "_monomial_map")
    decisions = counting(monkeypatch, "_map_report")
    grp = build_abelian([4])
    d = sign_division(grp, 2)
    p = make_presentation(d, [1, 1], [0, 1])
    q = make_presentation(d, [1, 1], [2, 3])
    klein = pauli(2, build_abelian([2, 2]), [2, 1])
    r = make_presentation(klein, [2, 1], [0, 1, 3])
    for verdict, read in (
        (iso_algebras(p, q), "images"),
        (iso_pairs(p, q), "exponents"),
        (iso_algebras(r, random_transform(random.Random(5), r)), "mapping"),
    ):
        assert verdict.kind == ISOMORPHIC and (len(tables), len(decisions)) == (0, 0)
        w = verdict.witness
        assert repr(w).startswith("IsoWitness(") and (len(tables), len(decisions)) == (0, 0)
        first = getattr(w, read)
        assert (len(tables), passes(decisions)) == (1, (1, 0))
        assert getattr(w, read) == first and w.images and w.exponents and w.mapping
        assert (len(tables), passes(decisions)) == (1, (1, 0))
        tables.clear()
        decisions.clear()


def off_by_one(d, d2):
    """iso_division with the corrector's second exponent raised by 1."""
    mu = iso_division(d, d2)
    return mu and Corrector(mu.support, mu.order, (mu.exps[0], mu.exps[1] + 1, *mu.exps[2:]))


def test_a_wrong_engine_mu_answers_yes_and_raises_on_first_read(monkeypatch):
    """The verdict rests on the search's data, so a corrector that breaks the
    law still answers YES; the map it induces fails its check on first read,
    and on every read after, and is never handed out."""
    monkeypatch.setattr(flagiso.iso, "iso_division", off_by_one)
    klein = pauli(2, build_abelian([2, 2]), [2, 1])
    p = make_presentation(klein, [1, 1], [0, 1])
    verdict = iso_algebras(p, p)
    assert verdict.kind == ISOMORPHIC and verdict.witness.mu.exps == (0, 1, 0, 0)
    for read in (lambda w: w.mapping, lambda w: verify_witness(realize(p), realize(p), w)) * 2:
        with pytest.raises(AssertionError, match="engine produced a witness that fails verification"):
            read(verdict.witness)


def test_a_map_refused_on_first_read_realizes_nothing(monkeypatch):
    """The engine error of a derived map that fails its first read names the
    failures through the map check itself, one deciding and one naming pass:
    no algebra is realized and no degree array computed."""
    calls = []
    for name in ("realize", "_degrees"):
        fn = getattr(flagiso.algebras, name)
        monkeypatch.setattr(
            flagiso.algebras, name, lambda p, fn=fn, name=name: calls.append(name) or fn(p)
        )
    checks = counting(monkeypatch, "_map_report")
    monkeypatch.setattr(flagiso.iso, "iso_division", off_by_one)
    klein = pauli(2, build_abelian([2, 2]), [2, 1])
    p = make_presentation(klein, [1, 1], [0, 1])
    verdict = iso_algebras(p, p)
    with pytest.raises(AssertionError, match=r"fails verification: \('scalar mismatch at "):
        verdict.witness.mapping
    assert calls == [] and passes(checks) == (1, 1)


def test_a_built_witness_map_is_checked_on_first_read_too():
    """build_witness, invert_witness and compose_witness derive their maps as
    the engine does, on first read; a loaded map is kept as given."""
    grp = build_abelian([4])
    d = sign_division(grp, 2)
    p = make_presentation(d, [1, 1], [0, 1])
    q = make_presentation(d, [1, 1], [2, 3])
    w = iso_algebras(p, q).witness
    alg, alg2 = realize(p), realize(q)
    for built, src, tgt in (
        (build_witness(p, q, w.shift, w.sigma, w.correctors, w.mu), alg, alg2),
        (invert_witness(w), alg2, alg),
        (compose_witness(w, invert_witness(w)), alg, alg),
    ):
        assert "images" not in vars(built)
        assert verify_witness(src, tgt, built).ok
        assert vars(built)["images"] == built.images and built.images
    loaded = witness_with_map(w, {b: (alg2.basis[0], 0) for b in alg.basis})
    assert loaded.images == vars(loaded)["images"] == (0,) * alg.dim
    assert not verify_witness(alg, alg2, loaded).ok


def test_verify_witness_checks_an_unread_map_once(monkeypatch):
    """verify_witness on an engine witness whose map was never read builds the
    map once and decides it once, on its own walk, and keeps it; a later call
    decides again on the kept map, and a call on other algebras builds and
    keeps nothing of its own.  Only a refused map is walked a second time, to
    name its failures."""
    tables = counting(monkeypatch, "_monomial_map")
    checks = counting(monkeypatch, "_map_report")
    grp = build_abelian([4])
    d = sign_division(grp, 2)
    p = make_presentation(d, [1, 1], [0, 1])
    q = make_presentation(d, [1, 1], [2, 3])
    alg, alg2 = realize(p), realize(q)
    w = iso_algebras(p, q).witness
    assert verify_witness(alg, alg2, w).ok and (len(tables), passes(checks)) == (1, (1, 0))
    assert verify_witness(alg, alg2, w).ok and (len(tables), passes(checks)) == (1, (2, 0))
    w = iso_algebras(p, q).witness
    tables.clear()
    checks.clear()
    r = make_presentation(d, [1, 1], [1, 0])
    assert not verify_witness(realize(r), alg2, w).ok  # the map's first read checks it first
    assert (len(tables), passes(checks)) == (1, (2, 1))
    assert verify_witness(alg, alg2, w).ok and (len(tables), passes(checks)) == (1, (3, 1))


def test_the_constructor_takes_a_whole_map_and_keeps_it():
    """Only the library derives a map: a witness made by hand must carry both
    images and exponents, and keeps them as given, unchecked, with no map built."""
    grp = build_abelian([2])
    p = make_presentation(trivial_division(grp), [1], [0])
    mu = Corrector(p.division.support, 1, (0,))
    with pytest.raises(TypeError):
        IsoWitness(p, p, 0, (0,), (0,), mu, 1)
    with pytest.raises(TypeError):
        IsoWitness(p, p, 0, (0,), (0,), mu, 1, images=(0,))
    with mock.patch("flagiso.iso._monomial_map") as derive:
        w = IsoWitness(p, p, 0, (0,), (0,), mu, 1, (0,), (1,))
        assert (w.images, w.exponents, w.mapping) == ((0,), (1,), {(0, 0, 0): ((0, 0, 0), 1)})
    assert not derive.called


def test_copies_of_an_unread_witness_derive_their_map():
    grp = build_abelian([4])
    d = sign_division(grp, 2)
    p = make_presentation(d, [1, 1], [0, 1])
    w = iso_algebras(p, make_presentation(d, [1, 1], [2, 3])).witness
    for twin in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert "images" not in vars(twin)
        assert (twin.images, twin.exponents) == (w.images, w.exponents)


def test_an_unread_witness_answers_only_for_its_map(monkeypatch):
    """Only images and exponents are derived when missing: any other missing
    name, as copy asks for, stays missing and builds no map."""
    tables = counting(monkeypatch, "_monomial_map")
    grp = build_abelian([4])
    d = sign_division(grp, 2)
    p = make_presentation(d, [1, 1], [0, 1])
    w = iso_algebras(p, make_presentation(d, [1, 1], [2, 3])).witness
    assert getattr(w, "colour", None) is None and not hasattr(w, "__deepcopy__")
    assert tables == [] and "images" not in vars(w)


# -- a NO's separating invariant, derived on first read ----------------------------


def chain_no():
    """Chain flags over Z3 that a degree's dimension separates."""
    d = trivial_division(build_abelian([3]))
    return make_presentation(d, [1, 1], [0, 1]), make_presentation(d, [1, 1], [0, 2])


def unseparated_no():
    """(e,e,a) and (e,a,a) over Z4: a NO with every profile equal."""
    d = trivial_division(build_abelian([4]))
    return make_presentation(d, [1, 1, 1], [0, 0, 1]), make_presentation(d, [1, 1, 1], [0, 1, 1])


def test_a_no_compares_profiles_on_first_read_only(monkeypatch):
    """A NO compares no profile until its invariant is read; the first read
    compares the two sides once, keeps the result and drops the presentations,
    and a second read compares nothing."""
    profiles = counting(monkeypatch, "_coset_profiles")
    for p, q in (chain_no(), unseparated_no()):
        profiles.clear()
        cert = iso_algebras(p, q).certificate
        assert profiles == [] and "invariant_mismatch" not in vars(cert)
        want = eager_invariant_mismatch(p, q)
        profiles.clear()
        assert cert.invariant_mismatch == want
        assert [args[0] for args in profiles] == [p, q]
        assert vars(cert).keys() == {"shifts_tried", "detail", "invariant_mismatch"}
        assert cert.invariant_mismatch == want and len(profiles) == 2


def test_an_unread_certificate_answers_only_for_its_invariant(monkeypatch):
    """Only invariant_mismatch is derived when missing: any other missing name,
    as copy asks for, stays missing and compares nothing.  The class holds no
    default that would answer for the hook."""
    profiles = counting(monkeypatch, "_coset_profiles")
    cert = iso_algebras(*chain_no()).certificate
    assert getattr(cert, "colour", None) is None and not hasattr(cert, "__deepcopy__")
    assert profiles == [] and "invariant_mismatch" not in vars(cert)
    assert "invariant_mismatch" not in vars(SearchExhausted)


def test_copies_of_an_unread_certificate_derive_its_invariant():
    for p, q in (chain_no(), unseparated_no()):
        cert = iso_algebras(p, q).certificate
        twins = (copy.copy(cert), copy.deepcopy(cert), pickle.loads(pickle.dumps(cert)))
        assert "invariant_mismatch" not in vars(cert)
        for twin in twins:
            assert "invariant_mismatch" not in vars(twin)
            assert twin.invariant_mismatch == eager_invariant_mismatch(p, q)
        assert cert.invariant_mismatch == eager_invariant_mismatch(p, q)


def test_an_unread_certificate_compares_and_prints_as_an_eager_one():
    """Equality, hashing and repr read the invariant, so an unread certificate
    meets them as one made with its invariant computed."""
    for p, q in (chain_no(), unseparated_no()):
        made = iso_algebras(p, q).certificate
        eager = SearchExhausted(made.shifts_tried, made.detail, eager_invariant_mismatch(p, q))
        assert iso_algebras(p, q).certificate == eager and eager == iso_algebras(p, q).certificate
        assert repr(iso_algebras(p, q).certificate) == repr(eager)
        assert hash(iso_algebras(p, q).certificate) == hash(eager)
        assert iso_algebras(p, q).certificate == made
    assert repr(made).endswith("invariant_mismatch=None)")


def test_made_and_pair_certificates_read_none(monkeypatch):
    """A SearchExhausted made by hand, or by iso_pairs, holds None and compares nothing."""
    profiles = counting(monkeypatch, "_coset_profiles")
    assert SearchExhausted(1, "made").invariant_mismatch is None
    mismatch = InvariantMismatch("made")
    assert SearchExhausted(1, "made", mismatch).invariant_mismatch is mismatch
    d = trivial_division(build_abelian([3]))
    cert = iso_pairs(make_presentation(d, [2], [0, 0]), make_presentation(d, [2], [0, 1])).certificate
    assert isinstance(cert, SearchExhausted) and cert.invariant_mismatch is None
    assert profiles == []


def test_concurrent_first_reads_agree():
    """Threads that read unread certificates at once all read the eager
    invariant, and none fails: a read keeps its result before it drops the
    presentations, and a read that finds them gone returns the kept result."""
    p, q = chain_no()
    want = eager_invariant_mismatch(p, q)
    certs = [iso_algebras(p, q).certificate for _ in range(300)]
    start = threading.Barrier(4, timeout=30)
    reads, errors = [], []

    def read():
        try:
            start.wait()
            reads.append([cert.invariant_mismatch for cert in certs])
        except Exception as e:  # the assertion below reports it
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and reads == [[want] * len(certs)] * 4


def test_the_class_cross_check_compares_no_profile(monkeypatch):
    """enumerate_classes reads only the kind of each pairwise NO."""
    profiles = counting(monkeypatch, "_coset_profiles")
    cls = enumerate_classes(build_abelian([3]), (1, 1), trivial_division(build_abelian([3])))
    assert cls.pairwise_checked and cls.count > 1 and profiles == []


def test_certified_refuses_data_outside_the_description():
    """The decision's own checks, on records the search never yields: sigma
    must be a block-preserving permutation, and the correctors it solves must
    lie in the support."""
    grp = build_abelian([4])
    d = sign_division(grp, 2)
    p = make_presentation(d, [1, 1], [0, 1])
    q = make_presentation(d, [1, 1], [2, 3])
    found = next(r for r in _shift_outcomes(p, q) if r.sigma is not None)
    assert _certified(p, q, found).kind == ISOMORPHIC
    for sigma, failure in (
        ((0,), "sigma is not a permutation"),
        ((0, 0), "sigma is not a permutation"),
        ((0, 2), "sigma is not a permutation"),
        ((1, 0), "sigma does not preserve blocks"),
    ):
        with pytest.raises(AssertionError, match=f"outside the paper's description: {failure}"):
            _certified(p, q, found._replace(sigma=sigma))
    with pytest.raises(AssertionError, match="correctors must lie in the division support"):
        _certified(p, q, found._replace(g=grp.mul(found.g, 1)))
    r = make_presentation(d, [2], [0, 2])
    found = next(x for x in _shift_outcomes(r, r) if x.sigma is not None)
    assert _certified(r, r, found._replace(sigma=(1, 0))).witness.sigma == (1, 0)
