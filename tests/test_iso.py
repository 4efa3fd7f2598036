import dataclasses
import random
from unittest import mock

import pytest
from conftest import make_sym, products_read, witness_with_map

import flagiso.algebras
import flagiso.iso
import flagiso.modlinalg
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
    SearchExhausted,
    Subgroup,
    WitnessReport,
    build_abelian,
    build_witness,
    check_grading,
    classify,
    compose_witness,
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
from flagiso.iso import _shift_outcomes

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
    """Two YES queries on one shape and support build the shared generator
    products once, with the layout; check_grading and verify_witness both
    read them."""
    layout = flagiso.algebras._layout
    layout.cache_clear()
    rng = random.Random(3)
    d = pauli(2, build_abelian([2, 4]), ["(1,0)", "(0,2)"])
    tuples = [[rng.randrange(8) for _ in range(3)] for _ in range(2)]
    sources = [make_presentation(d, (2, 1), t) for t in tuples]
    for p in sources:
        assert iso_algebras(p, random_transform(rng, p)).kind == ISOMORPHIC
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
    assert counts == [products, products]  # the YES query's check, then this one
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
    """A YES realizes each side once, to certify it; a NO and building a witness
    realize nothing."""
    calls = []
    monkeypatch.setattr("flagiso.iso.realize", lambda p: calls.append(p) or realize(p))

    def count(fn, *args):
        calls.clear()
        out = fn(*args)
        return out, len(calls)

    grp = build_abelian([4])
    d = sign_division(grp, 2)
    p = make_presentation(d, [1, 1], [0, 1])
    q = make_presentation(d, [1, 1], [2, 3])
    yes, n_yes = count(iso_algebras, p, q)
    assert yes.kind == ISOMORPHIC and n_yes == 2
    no, n_no = count(iso_algebras, p, make_presentation(d, [1, 1], [0, 0]))
    assert no.kind == NOT_ISOMORPHIC and no.certificate.invariant_mismatch and n_no == 0
    w = yes.witness
    assert count(build_witness, p, q, w.shift, w.sigma, w.correctors, w.mu)[1] == 0
    inv, n_inv = count(invert_witness, w)
    assert n_inv == 0
    assert count(compose_witness, w, inv)[1] == 0
    pairs, n_pairs = count(iso_pairs, p, q)
    assert pairs.kind == ISOMORPHIC and n_pairs == 2
    t = trivial_division(grp)
    eq, n_eq = count(
        equiv_elementary, make_presentation(t, [1, 1], [0, 1]), make_presentation(t, [1, 1], [0, 3])
    )
    assert eq.kind == EQUIVALENT and n_eq == 2


def test_degrees_are_computed_once_per_side(monkeypatch):
    """A YES computes each side's degrees once, to realize it; a NO none, as it
    reads its invariants off the coset configuration; and invariants(realize(p))
    once, as invariants counts the algebra's own degrees."""
    calls = []
    degrees = flagiso.algebras._degrees
    monkeypatch.setattr(
        flagiso.algebras, "_degrees", lambda p, layout: calls.append(p) or degrees(p, layout)
    )
    grp = build_abelian([4])
    d = sign_division(grp, 2)
    p = make_presentation(d, [1, 1], [0, 1])
    q = make_presentation(d, [1, 1], [2, 3])
    r = make_presentation(d, [1, 1], [0, 0])
    assert iso_algebras(p, q).kind == ISOMORPHIC and calls == [p, q]
    calls.clear()
    no = iso_algebras(p, r)
    assert no.kind == NOT_ISOMORPHIC and no.certificate.invariant_mismatch and calls == []
    calls.clear()
    invariants(realize(p))
    assert calls == [p]


def test_each_conjugation_map_is_decided_once(monkeypatch):
    """The shift search solves the division question once per distinct map
    h -> g^-1 h g on the support, not once per shift."""
    calls = []
    monkeypatch.setattr(
        "flagiso.iso.iso_division", lambda d, d2: calls.append(d) or iso_division(d, d2)
    )

    def count(fn, *args):
        calls.clear()
        out = fn(*args)
        return out, len(calls)

    def conjugation_maps(d):
        grp = d.group
        return len({tuple(grp.conj(h, g) for h in d.support.members) for g in grp.elements()})

    z3z6 = build_abelian([3, 6])
    d = pauli(3, z3z6, ["(1,0)", "(0,2)"])
    p, q = (make_presentation(d, [1, 1], degrees) for degrees in ([0, 1], [0, 0]))
    no, n_no = count(iso_algebras, p, q)
    assert no.kind == NOT_ISOMORPHIC and no.certificate.shifts_tried == 18
    assert n_no == 1  # abelian: every shift gives the same D^g

    s3 = make_sym(3)[0]
    sub = Subgroup(s3, (s3.identity, s3.elem_by_name("102").index))
    t = GradedDivisionAlgebra(validate_cocycle(sub, 2, [[0, 0], [0, 1]]))
    p, q = (make_presentation(t, [1, 1], degrees) for degrees in ([0, 1], [0, 0]))
    no, n_no = count(iso_algebras, p, q)
    assert no.kind == NOT_ISOMORPHIC and no.certificate.shifts_tried == 6
    assert n_no == conjugation_maps(t) == 3  # |S3 : C(H)| conjugates of {e, (01)}

    for division in (d, t, trivial_division(s3)):
        flagiso.iso._coset_action.cache_clear()  # a cached shift action solves nothing
        assert count(classify, division.group, [1], division)[1] == conjugation_maps(division)


def test_shifts_that_move_nothing_transport_and_eliminate_nothing():
    """Over a central support every shift compares D itself with D': a NO over a
    pair sharing one D builds no shifted support, transports no cocycle and
    diagonalizes no system, as the right-hand side of D against D is zero."""
    s4 = make_sym(4)[0]
    z3z6 = build_abelian([3, 6])
    for d, blocks, degrees in (
        (pauli(3, z3z6, ["(1,0)", "(0,2)"]), [1, 1], ([0, 1], [0, 0])),
        (trivial_division(s4), [1, 2], ([0, 1, 2], [0, 0, 1])),
    ):
        p, q = (make_presentation(d, blocks, tup) for tup in degrees)
        diagonalize = flagiso.modlinalg._diagonalize
        before = diagonalize.cache_info()
        with mock.patch("flagiso.division.transport", wraps=transport) as moved, mock.patch(
            "flagiso.iso.shift_conjugate", wraps=shift_conjugate
        ) as shifted:
            no = iso_algebras(p, q)
        assert no.kind == NOT_ISOMORPHIC and no.certificate.shifts_tried == d.group.size
        assert moved.call_count == shifted.call_count == 0
        after = diagonalize.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


def test_each_moving_conjugation_map_is_shifted_once():
    """Over the Klein four-group of S4 that conjugation moves, D^g is built once
    per distinct conjugation map other than the identity; the shifts that
    centralize the support compare D itself."""
    s4 = make_sym(4)[0]
    d = pauli(2, s4, ["1023", "0132"])
    members = d.support.members
    assert not d.support.central

    def conjugation_map(g):
        return tuple(s4.conj(h, g) for h in members)

    maps = {conjugation_map(g) for g in s4.elements()}
    p, q = (make_presentation(d, [1, 1], tup) for tup in ([0, 1], [5, 7]))
    with mock.patch("flagiso.iso.shift_conjugate", wraps=shift_conjugate) as shifted:
        records = list(_shift_outcomes(p, q))
    assert [r.g for r in records] == list(s4.elements())
    moving = [conjugation_map(c.args[1]) for c in shifted.call_args_list]
    assert len(moving) == len(set(moving)) == len(maps) - 1 == 5  # |S4 : C(V)| = 6 maps
    assert members not in moving


def test_cosets_are_paired_once_per_left_coset_of_the_inverse_shift():
    """The blockwise pairing depends on g only through the coset g^-1 H, so a
    search makes at most |G:H| pairings however many shifts find a corrector.
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
            records = list(_shift_outcomes(p, q))
        assert [r.g for r in records] == list(grp.elements()) and len(records) == n_records
        assert all(r.sigma is None for r in records)
        with_corrector = sum(r.mu is not None for r in records)
        assert with_corrector > most  # one pairing per such shift would break the bound
        assert 1 <= sorts.call_count - 1 <= most
