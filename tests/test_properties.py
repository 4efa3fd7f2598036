"""Randomized properties of the decision engines and the loaders.

Isomorphism: small same-division pairs in three setups, Z4 with the trivial
division, Z2 x Z2 with the clock-and-shift division of degree 2, and S3 with
the trivial division; shapes have at most three blocks and n <= 4.
Equivalence: elementary pairs over ten abelian groups of order <= 9 with
n <= 5, against a brute-force search over block-preserving permutations;
the check of an equivalence witness, on the presentations, against the
check on the realized degree arrays, with repeated lines dropped, for engine
witnesses, drawn sigma across blocks or not a permutation, merged targets,
wrong component maps, targets over a nontrivial support and targets of
another shape of the same dimension.
Loaders: every fixture, its saved form and one fixture witness with one
field replaced by a random JSON value or deleted, run through the CLI.
Oracles for checks the library proves instead of re-running: verify_witness
against the all-pairs loop, on valid and corrupted witnesses, also with its
deciding pass alone, which checks generators; that pass against its naming
pass over every basis pair; the premise of that check, that
products of the generators reach every basis element, on the three setups,
shifted supports, both Klein four-groups of S4 and every shape of at most
five positions over a trivial, a cyclic and a Z3 x Z3 support, with no
singleton block's unit among the generators over a nontrivial support; a
witness with one exponent or one image changed, on shapes with singleton
blocks over nontrivial supports, rejected with the all-pairs loop's
failures; basis_of against a sort,
and the cells of its shape against a filter; invariants, read off the
coset configuration, against the count over the realized basis, on the
three setups, shifted supports, both Klein four-groups of S4, flags of 30
to 36 blocks, all-singleton shapes over supports of order 1, S3's twisted
transposition and D8's twisted center, and against the presentation's
per-cell count on corrupted degrees, which it does not read;
check_grading, which checks the generator products first, against the
walk over every product, on valid and corrupted degrees; invert_witness and
compose_witness, which solve the tuple relation for the correctors, against
build_witness on the data of the explicit corrector formulas; realize,
which shares one basis and index per shape and support, and the witness
map, read off per-key tables by position, against their per-basis-element
builds, on the same inputs, for engine witnesses and for random valid
witness data with twisted targets and mixed correctors; the one degree
array by basis position, the profiles of the radical powers read off the
coset configuration (with nothing expanded over a central support) and the
witness map against the per-cell builds, on those inputs, flags of
30 to 36 blocks, all-singleton shapes over supports of order 1, S3's
twisted transposition, the Klein four-group of S4 that conjugation moves
and D8's twisted center; the invariant mismatch of every NO against the
separation of both sides' per-cell invariants, which always names a degree
or a radical power, on the same inputs and on division parts whose
supports differ, and against the reading with reps_only on a shared central
support alone; every shifted or transported
cocycle against validate_cocycle; every find_isomorphisms map against an
all-pairs homomorphism check; the nonzero-product walk, in full and from the
generators, against all basis pairs, on the three setups and on shifted
twisted and non-abelian supports; the per-shift records, which solve once
per conjugation map, sort the source cosets once and pair the cosets once
per coset g^-1 H, against the loop that solves and counts cosets once per
shift, record for record with failures included, over all of G ascending,
backwards, in a drawn order and as a drawn list with repeated shifts, on
those inputs, both Klein four-groups of S4 and the center of D8, a central
support in a non-abelian group with two cohomologous cocycles (the oracle
builds D^g at every shift), and each
corrector they solve for against the system built afresh and eliminated
from scratch; cohomologous, which solves the generator rows of one cached
system per support and modulus and checks the corrector law by position,
against solve_congruences on the dense rows of every pair and against every
row of their row transform U applied to the full right-hand side (the same
verdict, and a corrector that differs by a homomorphism), on random twists
over Z2 x Z2, Z4, Z2 x Z4, Z3 x Z3 and the clock-and-shift supports of order
9 and 16, S3's twisted transposition and D8's twisted center, on pairs that
are not cohomologous (drawn on purpose against that full solve, also over
all of D8 and of S3), on identical cocycles and on equal values at two root
orders; canonical_form, which reads
one cached action of the admissible shifts on cosets, against the least form
over every shift decided one by one, and as one of classify's
representatives, on Z2 x Z4 trivial and clock-and-shift, a twisted Z2 in Z6,
S3's twisted transposition, the Klein four-group of S4 that conjugation
moves and D8's twisted center, each shifted; classify, which
counts coset configurations, against the loop that canonicalizes every
degree tuple, and its class count against Burnside's lemma, on the same
inputs and, on shapes of three to five blocks with repeated sizes (whose
blocks share one shift table per size), on the three setups, the twisted
transposition in S3, Z2 x Z4 and the moved Klein four-group of S4, with the
tuple loop wherever |G|^n <= 8,000; validate_table, which checks
associativity through a generating set, against the loop over all triples,
on random loops of order 2 to 12, on relabeled group tables and on group
tables with one 2x2 subsquare flipped;
the one greedy closure walk against the oracles it replaced, on every
subgroup of the abelian groups of order <= 16, S3 and S4: each generating
set, the closure of random seeds and each list of isomorphisms, in order;
Subgroup.central against the center found by conjugation, on the same
subgroups and those of D8.
Runs are derandomized and keep no example database, so every run
draws the same examples.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import random
import re
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

from conftest import (
    admissible_shifts,
    associative_by_triples,
    cell_degrees,
    classes_by_burnside,
    classify_by_tuples,
    closure_by_products,
    cohomologous_by_dense_solve,
    cohomologous_by_elimination,
    cohomologous_by_replay,
    assert_solves_as,
    composed_witness_data,
    derive_mapping_by_basis,
    dihedral_8,
    generators_by_rebuilding,
    grading_by_products,
    invariants_by_basis,
    invariants_by_cell,
    separate_by_invariants,
    inverted_witness_data,
    isomorphisms_by_closing,
    least_form,
    make_sym,
    mismatch_by_shared_support,
    product_pos,
    realize_by_basis,
    verify_equiv_by_degrees,
    verify_witness_by_dict,
    witness_map_by_cell,
    witness_with_map,
)
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flagiso import (
    EQUIVALENT,
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    BasisElem,
    BlockShape,
    Cocycle,
    Corrector,
    EquivWitness,
    GradedAlgebra,
    GradedDivisionAlgebra,
    Group,
    InvalidInput,
    InvariantMismatch,
    Subgroup,
    WitnessReport,
    build_abelian,
    build_witness,
    canonical_form,
    check_grading,
    classify,
    cohomologous,
    compose_witness,
    equiv_elementary,
    find_isomorphisms,
    invariants,
    invert_witness,
    iso_algebras,
    iso_division,
    iso_pairs,
    make_presentation,
    pauli,
    realize,
    shift_conjugate,
    subgroup_closure,
    transport,
    trivial_cocycle,
    trivial_division,
    validate_cocycle,
    validate_table,
    verify_equiv_witness,
    verify_witness,
)
from flagiso.algebras import _coset_profiles, basis_of
from flagiso.cli import main
from flagiso.config import ISO_SEARCH_CAP
from flagiso.iso import _equiv_report, _map_report, _Shift, _shift_outcomes
from flagiso.io import load_presentation, save_presentation, witness_from_obj, witness_to_obj
from flagiso.presentations import shift_presentation

KLEIN = build_abelian([2, 2])
DIVISIONS = [
    trivial_division(build_abelian([4])),
    pauli(2, KLEIN, ["(1,0)", "(0,1)"]),
    trivial_division(make_sym(3)[0]),
]

SETTINGS = settings(derandomize=True, database=None, max_examples=120, deadline=None)


@st.composite
def shapes(draw, max_n=4):
    """Block sizes with at most three blocks summing to at most max_n."""
    n = draw(st.integers(1, max_n))
    s = draw(st.integers(1, min(3, n)))
    cuts = []
    if s > 1:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=s - 1, max_size=s - 1)))
    bounds = [0, *cuts, n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


@st.composite
def pairs(draw):
    """Two presentations with the same division part and shape."""
    division = draw(st.sampled_from(DIVISIONS))
    blocks = draw(shapes())
    n = sum(blocks)
    tuples = st.lists(st.integers(0, division.group.size - 1), min_size=n, max_size=n)
    return (
        make_presentation(division, blocks, draw(tuples)),
        make_presentation(division, blocks, draw(tuples)),
    )


@st.composite
def rewrites(draw, presentations=pairs().map(lambda pair: pair[0])):
    """A presentation and an isomorphic copy: shift g, in-block shuffle, coset moves."""
    p = draw(presentations)
    grp = p.group
    g = draw(st.integers(0, grp.size - 1))
    sigma = [i for block in p.shape.block_positions() for i in draw(st.permutations(block))]
    moves = st.sampled_from(p.division.support.members)
    degrees = [grp.mul(grp.mul(p.degrees[k], draw(moves)), g) for k in sigma]
    return p, make_presentation(shift_conjugate(p.division, g), p.shape, degrees)


@SETTINGS
@given(pairs())
def test_isomorphic_exactly_when_canonical_forms_agree(pair):
    p, q = pair
    assert (iso_algebras(p, q).kind == ISOMORPHIC) == (canonical_form(p) == canonical_form(q))


@SETTINGS
@given(pairs())
def test_every_witness_survives_the_json_round_trip(pair):
    p, q = pair
    verdict = iso_algebras(p, q)
    if verdict.kind == ISOMORPHIC:
        obj = json.loads(json.dumps(witness_to_obj(verdict.witness)))
        back = witness_from_obj(obj, p, q)
        assert verify_witness(realize(p), realize(q), back).ok


@SETTINGS
@given(rewrites())
def test_rewrites_are_isomorphic(rewrite):
    p, q = rewrite
    assert iso_algebras(p, q).kind == ISOMORPHIC


# -- verify_witness against the all-pairs loop ------------------------------------------


def verify_witness_by_pairs(alg, alg2, w) -> WitnessReport:
    """The exhaustive check: every one of the dim^2 basis pairs, one at a time."""
    failures: list[str] = []
    basis = alg.basis
    dim = len(basis)
    if set(w.mapping) != set(basis):
        return WitnessReport(False, 0, ("map is not defined on exactly the source basis",))
    if dim != len(alg2.basis):
        return WitnessReport(False, 0, ("algebras have different dimensions",))
    order = w.scalar_order
    m1, m2 = alg.order, alg2.order
    if order % m1 or order % m2:
        return WitnessReport(
            False, 0, (f"scalar order {order} does not embed both mu_{m1} and mu_{m2}",)
        )
    k1, k2 = order // m1, order // m2
    img_pos = [0] * dim
    img_exp = [0] * dim
    for pos, b in enumerate(basis):
        tgt, exp = w.mapping[b]
        tpos = alg2.index.get(tgt)
        if tpos is None:
            failures.append(f"image of {tuple(b)} is not a basis element: {tuple(tgt)}")
            continue
        img_pos[pos] = tpos
        img_exp[pos] = exp % order
    if failures:
        return WitnessReport(False, 0, tuple(failures))
    if len(set(img_pos)) != dim:
        return WitnessReport(False, 0, ("map is not injective on basis elements",))
    grp = alg.group
    for pos in range(dim):
        if alg2.degree[img_pos[pos]] != alg.degree[pos]:
            failures.append(
                f"degree mismatch at {tuple(basis[pos])}: "
                f"{grp.name_of(alg.degree[pos])} -> {grp.name_of(alg2.degree[img_pos[pos]])}"
            )
    if failures:
        return WitnessReport(False, 0, tuple(failures))
    checked = 0
    for p1 in range(dim):
        for q in range(dim):
            checked += 1
            src_zero = basis[p1].col != basis[q].row
            tgt_zero = alg2.basis[img_pos[p1]].col != alg2.basis[img_pos[q]].row
            pair = f"{tuple(basis[p1])} * {tuple(basis[q])}"
            if src_zero or tgt_zero:
                if src_zero != tgt_zero:
                    failures.append(
                        f"zero product {pair} maps to a nonzero product"
                        if src_zero
                        else f"nonzero product {pair} maps to a zero product"
                    )
                continue
            s_exp, s_pos = product_pos(alg, p1, q)
            t_exp, t_pos = product_pos(alg2, img_pos[p1], img_pos[q])
            if t_pos != img_pos[s_pos]:
                failures.append(f"product routing differs at {pair}")
                continue
            lhs = k1 * s_exp + img_exp[s_pos]
            rhs = img_exp[p1] + img_exp[q] + k2 * t_exp
            if (lhs - rhs) % order:
                failures.append(
                    f"scalar mismatch at {pair}: "
                    f"exponent {lhs % order} != {rhs % order} (mod {order})"
                )
    return WitnessReport(not failures, checked, tuple(failures))


CORRUPTIONS = ["none", "scalar", "equal-degree swap", "in-cell swap"]


@st.composite
def witnesses(draw, isomorphic=rewrites()):
    """An isomorphic pair, its witness, and one corruption of the witness's map:
    a changed scalar; two swapped images of basis elements of equal degree,
    which keeps degrees and breaks only the zero pattern; or two swapped
    images within one cell (row, column), which misroutes products (within a
    cell the degree fixes the support element, so the degree check sees it
    first)."""
    p, q = draw(isomorphic)
    w = iso_algebras(p, q).witness
    alg, alg2 = realize(p), realize(q)
    mapping = dict(w.mapping)
    kind = draw(st.sampled_from(CORRUPTIONS))
    basis = alg.basis
    if kind == "scalar":
        b = draw(st.sampled_from(basis))
        tgt, exp = mapping[b]
        mapping[b] = (tgt, exp + 1)  # no change when the scalar order is 1
    elif kind != "none":
        key = {
            "equal-degree swap": lambda b: alg.degree[alg.index[b]],
            "in-cell swap": lambda b: (b.row, b.col),
        }[kind]
        swaps = [(x, y) for x in basis for y in basis if x < y and key(x) == key(y)]
        if swaps:
            x, y = draw(st.sampled_from(swaps))
            mapping[x], mapping[y] = mapping[y], mapping[x]
    return alg, alg2, witness_with_map(w, mapping)


def is_subsequence(short, long) -> bool:
    it = iter(long)
    return all(x in it for x in short)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(witnesses())
def test_verify_witness_agrees_with_the_all_pairs_loop(case):
    """Same verdict and pair count as the loop.  Where the loop finds the zero
    pattern broken, the report names some of the pairs it names, in its order;
    otherwise the failures are the loop's, line for line."""
    alg, alg2, w = case
    got = verify_witness(alg, alg2, w)
    want = verify_witness_by_pairs(alg, alg2, w)
    assert (got.ok, got.checked_pairs) == (want.ok, want.checked_pairs)
    if any("zero product" in f for f in want.failures):
        assert got.failures and is_subsequence(got.failures, want.failures)
    else:
        assert got.failures == want.failures


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(witnesses())
def test_the_generator_pass_alone_decides_like_the_all_pairs_loop(case):
    """The deciding pass of the map check, degrees of the generators and
    scalars on generators x basis, with no naming pass over every nonzero
    product, rejects exactly the witnesses the all-pairs loop rejects."""
    alg, alg2, w = case
    got = _map_report(alg.presentation, alg2.presentation, w, False)
    assert got.ok == verify_witness_by_pairs(alg, alg2, w).ok


@SETTINGS
@given(pairs())
def test_basis_order_is_the_sorted_order(pair):
    p, _ = pair
    shape, members = p.shape, p.division.support.members
    cells = [
        (i, j)
        for i in range(shape.n)
        for j in range(shape.n)
        if shape.block_of(i) <= shape.block_of(j)
    ]
    want = sorted(
        ((i, j, h) for i, j in cells for h in members),
        key=lambda b: (shape.block_of(b[0]), shape.block_of(b[1]), b[0], b[1], members.index(b[2])),
    )
    assert [tuple(b) for b in basis_of(p)] == want
    assert [(i, j) for i, j, _ in shape.cells()] == sorted(
        cells, key=lambda c: (shape.block_of(c[0]), shape.block_of(c[1]), *c)
    )
    assert all(gap == shape.block_of(j) - shape.block_of(i) for i, j, gap in shape.cells())
    # built once per shape, as a tuple no caller can reorder
    assert isinstance(shape.cells(), tuple) and shape.cells() is shape.cells()
    assert BlockShape(shape.blocks).cells() == shape.cells()
    # cell_number inverts cells(), and it too is built once per shape
    assert list(shape.cell_number.items()) == [
        ((i, j), c) for c, (i, j, _) in enumerate(shape.cells())
    ]
    assert shape.cell_number is shape.cell_number


# -- derived cocycles and group isomorphisms --------------------------------------------

S3 = make_sym(3)[0]
S4 = make_sym(4)[0]


def twisted_transposition():
    """A cocycle of order 2 with sigma((01),(01)) = -1 on the support {e, (01)} of S3."""
    sub = Subgroup(S3, (S3.identity, S3.elem_by_name("102").index))
    return GradedDivisionAlgebra(validate_cocycle(sub, 2, [[0, 0], [0, 1]]))


SHIFTED = [
    pauli(2, KLEIN, ["(1,0)", "(0,1)"]),
    pauli(2, build_abelian([2, 4]), ["(1,0)", "(0,2)"]),
    pauli(3, build_abelian([3, 3]), ["(1,0)", "(0,1)"]),
    pauli(2, S4, ["1032", "2301"]),  # the normal Klein four-group
    pauli(2, S4, ["1023", "0132"]),  # a Klein four-group that conjugation moves
    twisted_transposition(),
]


FULL_S3 = GradedDivisionAlgebra(trivial_cocycle(Subgroup(S3, tuple(S3.elements()))))


D8 = dihedral_8()
# the center {e, r^2} of D8 with the coboundary of r^2 -> i: x_{r^2}^2 = -1
D8_CENTER = [
    GradedDivisionAlgebra(validate_cocycle(Subgroup(D8, (0, 4)), 4, [[0, 0], [0, 2]])),
    GradedDivisionAlgebra(trivial_cocycle(Subgroup(D8, (0, 4)))),
]


@st.composite
def shifted_presentations(draw):
    """A presentation over a shifted support: the Klein, Z2 x Z4 and Z3 x Z3
    clock-and-shift divisions, the twisted transposition in S3, and all of
    S3, where h_x h_y and h_y h_x differ."""
    d = draw(st.sampled_from([SHIFTED[i] for i in (0, 1, 2, 5)] + [FULL_S3]))
    d = shift_conjugate(d, draw(st.integers(0, d.group.size - 1)))
    blocks = draw(shapes())
    n = sum(blocks)
    degrees = draw(st.lists(st.integers(0, d.group.size - 1), min_size=n, max_size=n))
    return make_presentation(d, blocks, degrees)


@SETTINGS
@given(st.one_of(pairs().map(lambda pair: pair[0]), shifted_presentations()))
def test_nonzero_products_are_the_pair_by_pair_products(p):
    """The cell walk yields every nonzero product, in the all-pairs order, and
    the shared generator products are those with a generator on the left."""
    alg = realize(p)
    want = [
        (p1, p2, *res)
        for p1 in range(alg.dim)
        for p2 in range(alg.dim)
        if (res := product_pos(alg, p1, p2)) is not None
    ]
    assert list(alg.nonzero_products()) == want
    lefts = set(alg.generators())
    vals = p.division.cocycle.values
    shared = [(p1, p2, vals[x][y], pos) for p1, p2, x, y, pos in zip(*alg.generator_products())]
    assert shared == [t for t in want if t[0] in lefts]


# -- the shift search against the per-shift loop ---------------------------------------


def per_shift_outcomes(p, p2, shifts=None):
    """The reference loop: for every shift g, one division decision, then the
    blockwise counts of coset representatives compared and, where they agree,
    the positions of each coset class paired in ascending order."""
    grp = p.group
    rep = p.division.support.coset_rep
    blocks = p.shape.block_positions()
    src = [rep[d] for d in p.degrees]
    for g in grp.elements() if shifts is None else shifts:
        mu = iso_division(shift_conjugate(p.division, g), p2.division)
        tgt = [rep[grp.mul(d, grp.inv(g))] for d in p2.degrees]
        if mu is None or any(
            Counter(src[i] for i in b) != Counter(tgt[i] for i in b) for b in blocks
        ):
            yield _Shift(g, mu, None)
            continue
        sigma = [0] * p.shape.n
        for b in blocks:
            for r in set(src[i] for i in b):
                sources = [i for i in b if src[i] == r]
                targets = [i for i in b if tgt[i] == r]
                for t, s in zip(targets, sources):
                    sigma[t] = s
        yield _Shift(g, mu, tuple(sigma))


def outcome(record):
    """A record as plain data, its corrector by order and exponents."""
    g, mu, sigma = record
    return g, None if mu is None else (mu.order, mu.exps), sigma


@st.composite
def klein_s4_presentations(draw):
    """A presentation over the normal Klein four-group of S4 or over one that
    conjugation moves, each with the clock-and-shift cocycle of degree 2."""
    d = draw(st.sampled_from(SHIFTED[3:5]))
    n = sum(blocks := draw(shapes(max_n=3)))
    degrees = draw(st.lists(st.integers(0, d.group.size - 1), min_size=n, max_size=n))
    return make_presentation(d, blocks, degrees)


def reached_by_generators(alg) -> set[int]:
    """The basis positions of the products s1*s2*...*sk (k >= 1) of generators."""
    gens = alg.generators()
    reached, frontier = set(gens), list(gens)
    while frontier:
        w = frontier.pop()
        for s in gens:
            res = product_pos(alg, s, w)
            if res is not None and res[1] not in reached:
                reached.add(res[1])
                frontier.append(res[1])
    return reached


@SETTINGS
# a singleton block over a trivial support in a non-abelian group, and S3 as the support
@example(make_presentation(trivial_division(S3), (1, 2), [0, 1, 2]))
@example(make_presentation(FULL_S3, (2, 1, 1), [0, 3, 5, 1]))
@given(
    st.one_of(
        pairs().map(lambda pair: pair[0]), shifted_presentations(), klein_s4_presentations()
    )
)
def test_generators_reach_the_whole_basis(p):
    """The premise of verify_witness's induction: up to a root of unity, every
    basis element is a product of elements of the generating set."""
    alg = realize(p)
    gens = alg.generators()
    assert gens == sorted(set(gens))
    assert reached_by_generators(alg) == set(range(alg.dim))


@st.composite
def singletons_over_a_support(draw):
    """A presentation with a singleton block over a nontrivial support: Klein
    and Z3 x Z3 clock-and-shift, S3's twisted transposition, all of S3 and
    D8's twisted center, on at least two positions."""
    d = draw(st.sampled_from([SHIFTED[0], SHIFTED[2], SHIFTED[5], FULL_S3, D8_CENTER[0]]))
    blocks = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 1, 1), (1, 2, 1)]))
    n = sum(blocks)
    degrees = draw(st.lists(st.integers(0, d.group.size - 1), min_size=n, max_size=n))
    return make_presentation(d, blocks, degrees)


@SETTINGS
@given(rewrites(singletons_over_a_support()), st.data())
def test_one_changed_exponent_or_image_is_rejected_as_by_the_full_walk(rewrite, data):
    """A valid witness with one exponent raised by 1, or one image moved to
    another basis element, is rejected, with the failures of the check over
    every pair: the generators leave out the singleton blocks' units, and a
    changed scalar on one of them is still seen."""
    p, q = rewrite
    w = iso_algebras(p, q).witness
    alg, alg2 = realize(p), realize(q)
    mapping = dict(w.mapping)
    b = data.draw(st.sampled_from(alg.basis))
    tgt, exp = mapping[b]
    if w.scalar_order > 1 and data.draw(st.booleans()):
        mapping[b] = (tgt, exp + 1)
    else:
        mapping[b] = (data.draw(st.sampled_from([t for t in alg2.basis if t != tgt])), exp)
    broken = witness_with_map(w, mapping)
    got, want = verify_witness(alg, alg2, broken), verify_witness_by_pairs(alg, alg2, broken)
    assert not got.ok
    assert (got.checked_pairs, got.failures) == (want.checked_pairs, want.failures)


def test_every_singleton_unit_exponent_change_is_rejected():
    """Each exponent of a Klein clock-and-shift (1, 1, 1) witness, raised by 1,
    the units of the singleton blocks among them, fails as in the full walk."""
    p = make_presentation(SHIFTED[0], (1, 1, 1), [0, 1, 2])
    alg = realize(p)
    w = iso_algebras(p, p).witness
    units = {alg.index[BasisElem(f, f, p.group.identity)] for f in range(3)}
    assert units.isdisjoint(alg.generators())
    for b in alg.basis:
        mapping = dict(w.mapping)
        tgt, exp = mapping[b]
        mapping[b] = (tgt, exp + 1)
        broken = witness_with_map(w, mapping)
        got, want = verify_witness(alg, alg, broken), verify_witness_by_pairs(alg, alg, broken)
        assert not got.ok and got.failures == want.failures


@st.composite
def shifted_targets(draw, presentations):
    """A presentation and random degrees over its division part shifted by a drawn g."""
    p = draw(presentations)
    g = draw(st.integers(0, p.group.size - 1))
    n = p.shape.n
    degrees = draw(st.lists(st.integers(0, p.group.size - 1), min_size=n, max_size=n))
    return p, make_presentation(shift_conjugate(p.division, g), p.shape, degrees)


@st.composite
def d8_center_presentations(draw):
    """A presentation over the center of D8, a central support in a non-abelian
    group, with the coboundary-twisted or the trivial cocycle."""
    d = draw(st.sampled_from(D8_CENTER))
    n = sum(blocks := draw(shapes()))
    degrees = draw(st.lists(st.integers(0, D8.size - 1), min_size=n, max_size=n))
    return make_presentation(d, blocks, degrees)


@st.composite
def d8_center_pairs(draw):
    """Two presentations of one shape over the center of D8, whose cocycles may
    differ by the coboundary: a solve with a right-hand side that is not zero."""
    p = draw(d8_center_presentations())
    n = p.shape.n
    degrees = draw(st.lists(st.integers(0, D8.size - 1), min_size=n, max_size=n))
    return p, make_presentation(draw(st.sampled_from(D8_CENTER)), p.shape, degrees)


# same-division pairs, and pairs whose division parts differ by a shift, over
# shifted twisted supports, both Klein four-groups of S4 and the center of D8
SEARCHED = st.one_of(shifted_presentations(), klein_s4_presentations(), d8_center_presentations())
SEARCH_INPUTS = st.one_of(
    pairs(), rewrites(SEARCHED), shifted_targets(SEARCHED), d8_center_pairs()
)


@st.composite
def checked_witnesses(draw, isomorphic=rewrites()):
    """witnesses(isomorphic) as built, or loaded back from its JSON, or loaded
    with one map entry's "from" or "to" moved to row n + 1, which neither
    basis has."""
    alg, alg2, w = draw(witnesses(isomorphic))
    how = draw(st.sampled_from(["built", "loaded", "from", "to"]))
    if how == "built":
        return alg, alg2, w
    obj = json.loads(json.dumps(witness_to_obj(w)))
    if how != "loaded":
        entry = draw(st.sampled_from(obj["map"]))
        entry[how] = [w.source.shape.n + 1, 1, entry[how][2]]
    return alg, alg2, witness_from_obj(obj, w.source, w.target)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(checked_witnesses(), checked_witnesses(rewrites(SEARCHED))))
def test_verify_witness_agrees_with_the_dict_verifier(case):
    """Report for report (ok, checked_pairs and failures, in order) with the
    verifier on dicts of basis elements: engine, loaded and corrupted
    witnesses, over central supports and over S3's twisted transposition,
    the Klein four-group of S4 that conjugation moves and D8's twisted center."""
    alg, alg2, w = case
    assert verify_witness(alg, alg2, w) == verify_witness_by_dict(alg, alg2, w)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(witnesses(), witnesses(rewrites(SEARCHED))))
def test_the_deciding_and_the_naming_pass_agree(case):
    """The map check's proof in code: the pass over the generators and the
    pass over every basis pair accept the same maps, corrupted or not, and a
    refused map is named by at least one failure."""
    alg, alg2, w = case
    p, p2 = alg.presentation, alg2.presentation
    decided, named = _map_report(p, p2, w, False), _map_report(p, p2, w, True)
    assert decided.ok == named.ok
    assert named.ok or named.failures


# -- what the map check's deciding pass checks that degrees used to give ------------


def reported_as_by_the_loop(alg, alg2, w) -> WitnessReport:
    """verify_witness's report, compared with the all-pairs loop's as
    test_verify_witness_agrees_with_the_all_pairs_loop compares them."""
    got = verify_witness(alg, alg2, w)
    want = verify_witness_by_pairs(alg, alg2, w)
    assert (got.ok, got.checked_pairs) == (want.ok, want.checked_pairs)
    if any("zero product" in f for f in want.failures):
        assert got.failures and is_subsequence(got.failures, want.failures)
    else:
        assert got.failures == want.failures
    return got


def test_no_bijection_between_different_shapes_of_one_dimension_is_accepted():
    """Blocks (2,1) against (1,2) over a trivial support, every degree e: all
    5,040 bijections keep degrees, so it is the zero pattern, and pi's
    injectivity with it, that refuses each one, as the all-pairs loop does."""
    d = trivial_division(build_abelian([2]))
    p = make_presentation(d, (2, 1), [0, 0, 0])
    q = make_presentation(d, (1, 2), [0, 0, 0])
    alg, alg2 = realize(p), realize(q)
    assert alg.dim == alg2.dim == 7
    w = iso_algebras(p, p).witness
    for images in itertools.permutations(range(7)):
        moved = dataclasses.replace(w, target=q, images=images)
        assert not reported_as_by_the_loop(alg, alg2, moved).ok


def test_a_multiplicative_map_that_moves_degrees_is_rejected():
    """Every monomial map of the Klein clock-and-shift division algebra, each
    bijection of its four basis elements with each exponent vector: among the
    multiplicative ones, those that move a degree (as conjugation by the
    Hadamard matrix swaps X and Z) are refused, by the generators' degrees
    alone, and the ones that keep degrees are accepted."""
    p = make_presentation(SHIFTED[0], (1,), [0])
    alg = realize(p)
    w = iso_algebras(p, p).witness
    order = w.scalar_order

    def multiplicative(images, exps):
        for p1, q in itertools.product(range(alg.dim), repeat=2):
            s_exp, s_pos = product_pos(alg, p1, q)
            t_exp, t_pos = product_pos(alg, images[p1], images[q])
            if t_pos != images[s_pos] or (s_exp + exps[s_pos] - exps[p1] - exps[q] - t_exp) % order:
                return False
        return True

    verdicts = Counter()
    for images in itertools.permutations(range(alg.dim)):
        for exps in itertools.product(range(order), repeat=alg.dim):
            if multiplicative(images, exps):
                graded = all(alg.degree[t] == u for t, u in zip(images, alg.degree))
                moved = dataclasses.replace(w, images=images, exponents=exps)
                assert reported_as_by_the_loop(alg, alg, moved).ok == graded
                verdicts[graded] += 1
    assert verdicts[True] and verdicts[False]


def swapped(w, alg, x, y):
    """w with the map's entries at source positions x and y exchanged."""
    mapping = dict(w.mapping)
    bx, by = alg.basis[x], alg.basis[y]
    mapping[bx], mapping[by] = mapping[by], mapping[bx]
    return witness_with_map(w, mapping)


@SETTINGS
@given(rewrites(SEARCHED), st.data())
def test_a_generator_moved_within_its_target_cell_is_rejected(rewrite, data):
    """A valid witness with one generator's image moved to another support
    position of its target cell, whose image takes its place: the zero
    pattern holds, and the generator's degree is what changes."""
    p, q = rewrite
    w = iso_algebras(p, q).witness
    alg, alg2 = realize(p), realize(q)
    k = len(q.division.support.members)
    s = data.draw(st.sampled_from(alg.generators()))
    cell = w.images[s] - w.images[s] % k
    t = data.draw(st.sampled_from([t for t in range(cell, cell + k) if t != w.images[s]]))
    assert not reported_as_by_the_loop(alg, alg2, swapped(w, alg, s, w.images.index(t))).ok


@SETTINGS
@given(rewrites(SEARCHED), st.data())
def test_a_misrouting_off_the_generators_is_rejected(rewrite, data):
    """A valid witness with the images of two non-generators of one cell
    exchanged: every generator keeps its image, so the generators' degrees
    and the zero pattern hold, and only routing in the generator walk sees
    the fault."""
    p, q = rewrite
    w = iso_algebras(p, q).witness
    alg, alg2 = realize(p), realize(q)
    k = len(p.division.support.members)
    gens = set(alg.generators())
    pairs = [
        (x, y)
        for x in range(alg.dim)
        for y in range(x + 1, x - x % k + k)
        if x not in gens and y not in gens
    ]
    assume(pairs)
    x, y = data.draw(st.sampled_from(pairs))
    assert not reported_as_by_the_loop(alg, alg2, swapped(w, alg, x, y)).ok


@SETTINGS
@given(SEARCH_INPUTS, st.data())
def test_shift_search_matches_the_per_shift_loop(pair, data):
    """Over every shift of G, one solve per conjugation map, the source side
    sorted once and one pairing per coset g^-1 H yield, shift by shift and
    failures included, the records of one solve and one count per shift, in
    any shift order and with repeats."""
    p, p2 = pair
    got = [outcome(r) for r in _shift_outcomes(p, p2, p.group.elements())]
    with mock.patch(f"{__name__}.shift_conjugate", wraps=shift_conjugate) as shifted:
        assert got == [outcome(r) for r in per_shift_outcomes(p, p2)]
    assert shifted.call_count == p.group.size  # the oracle builds D^g at every shift
    assert [g for g, _, _ in got] == list(p.group.elements())
    elements = list(p.group.elements())
    for shifts in (
        elements[::-1],
        data.draw(st.permutations(elements)),
        data.draw(st.lists(st.sampled_from(elements), min_size=1, max_size=2 * len(elements))),
    ):
        got = [outcome(r) for r in _shift_outcomes(p, p2, shifts)]
        assert got == [outcome(r) for r in per_shift_outcomes(p, p2, shifts)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(SEARCH_INPUTS)
def test_the_search_yields_every_shift_that_pairs(pair):
    """Left to choose its shifts, the search yields, ascending, every shift at
    which the per-shift loop pairs, each with the loop's record; every shift
    it leaves out has no pairing in the loop."""
    p, p2 = pair
    want = {r.g: outcome(r) for r in per_shift_outcomes(p, p2)}
    got = [outcome(r) for r in _shift_outcomes(p, p2)]
    yielded = [g for g, _, _ in got]
    assert yielded == sorted(set(yielded))
    assert got == [want[g] for g in yielded]
    assert {g for g, (_, _, sigma) in want.items() if sigma is not None} <= set(yielded)
    assert all(want[g][2] is None for g in want.keys() - set(yielded))


def test_a_no_whose_blocks_admit_no_shift_decides_no_division():
    """Over the Klein four-group of S4 that conjugation moves, neither block's
    least source class can be met at any shift: the NO makes no division
    decision and builds no D^g, yet counts all of G as tried and carries the
    per-shift loop's certificate."""
    d = SHIFTED[4]
    p, q = (make_presentation(d, [1, 1], tup) for tup in ([0, 1], [5, 7]))
    assert list(_shift_outcomes(p, q)) == []
    with (
        mock.patch("flagiso.iso.iso_division", wraps=iso_division) as decided,
        mock.patch("flagiso.iso.shift_conjugate", wraps=shift_conjugate) as shifted,
    ):
        no = iso_algebras(p, q)
    assert decided.call_count == shifted.call_count == 0
    assert no.kind == NOT_ISOMORPHIC and no.certificate.shifts_tried == S4.size
    with mock.patch("flagiso.iso._shift_outcomes", per_shift_outcomes):
        assert iso_algebras(p, q) == no


def test_a_yes_whose_least_admitted_shift_is_not_the_identity():
    """A non-abelian YES over a moved support whose admitted shifts are one
    coset H g away from the identity: the search starts at g, and the verdict
    and witness are the per-shift loop's.  No degree lies in H, so each
    block's least class c is not e, and d'^-1 c and c d'^-1 name different
    cosets."""
    d = SHIFTED[4]
    p = make_presentation(d, [1, 2], [2, 2, 5])
    q = shift_presentation(p, 13)
    assert [r.g for r in _shift_outcomes(p, q)] == [13, 15, 19, 21]
    yes = iso_algebras(p, q)
    assert yes.kind == ISOMORPHIC and yes.witness.shift == 13
    with mock.patch("flagiso.iso._shift_outcomes", per_shift_outcomes):
        assert iso_algebras(p, q) == yes


@SETTINGS
@given(SEARCH_INPUTS)
def test_iso_algebras_matches_the_per_shift_loop(pair):
    """Verdicts, witnesses, certificates and canonical forms are those of the per-shift loop."""
    got = iso_algebras(*pair), iso_pairs(*pair), canonical_form(pair[0])
    with mock.patch("flagiso.iso._shift_outcomes", per_shift_outcomes):
        want = iso_algebras(*pair), iso_pairs(*pair), canonical_form(pair[0])
    assert got == want


@SETTINGS
@given(SEARCH_INPUTS)
def test_cohomologous_matches_the_solve_by_elimination(pair):
    """Each cocycle the shift search compares: the corrector from the cached
    rows decides as the rows over every pair, built afresh and eliminated from
    scratch, and differs from theirs by a homomorphism H -> Z_L."""
    d, d2 = pair[0].division, pair[1].division
    for g in d.group.elements():
        sigma = shift_conjugate(d, g).cocycle
        if sigma.support != d2.support:
            continue
        for s, t in ((sigma, d2.cocycle), (d2.cocycle, sigma), (sigma, sigma)):
            assert_solves_as(cohomologous(s, t), cohomologous_by_elimination(s, t), (s, t))


def cocycle_table(sub, order, exponent):
    """The cocycle of root order ``order`` with exponent(a, b) at members a, b."""
    return validate_cocycle(sub, order, [[exponent(a, b) for b in sub.members] for a in sub.members])


def with_trivial(d):
    return [d.cocycle, trivial_cocycle(d.support)]


Z4, Z2Z4 = build_abelian([4]), build_abelian([2, 4])
Z4_FULL, Z2Z4_FULL = (Subgroup(g, tuple(g.elements())) for g in (Z4, Z2Z4))
# sigma(a, b) = -1 when the Z4 coordinates of a and b carry: the extension Z8 of Z4,
# a coboundary in mu_8 and not in mu_4
Z4_CARRY = cocycle_table(Z4_FULL, 2, lambda a, b: int(a + b >= 4))
CLOCK_AND_SHIFT_9 = pauli(3, build_abelian([3, 6]), ["(1,0)", "(0,2)"])
CLOCK_AND_SHIFT_16 = pauli(4, build_abelian([4, 4, 2]), ["(1,0,0)", "(0,1,0)"])
# cocycles by support: each against a twist of itself is cohomologous, and the
# first of each list against a twist of the trivial one is not
COCYCLE_FAMILIES = [
    with_trivial(SHIFTED[0]),
    [Z4_CARRY, trivial_cocycle(Z4_FULL)],
    [
        cocycle_table(Z2Z4_FULL, 2, lambda a, b: a % 2 * (b // 4)),  # a_2 b_1 mod 2
        trivial_cocycle(Z2Z4_FULL),
        cocycle_table(Z2Z4_FULL, 2, lambda a, b: int(a % 4 + b % 4 >= 4)),
    ],
    with_trivial(SHIFTED[1]),
    with_trivial(SHIFTED[2]),
    with_trivial(CLOCK_AND_SHIFT_9),
    with_trivial(CLOCK_AND_SHIFT_16),
    with_trivial(twisted_transposition()),
    [d.cocycle for d in D8_CENTER],
]


def block_shapes(n):
    """Every block shape of n positions."""
    for cuts in itertools.product([False, True], repeat=n - 1):
        blocks = [1]
        for cut in cuts:
            if cut:
                blocks.append(1)
            else:
                blocks[-1] += 1
        yield tuple(blocks)


@pytest.mark.parametrize(
    "d",
    [trivial_division(Z4), GradedDivisionAlgebra(Z4_CARRY), CLOCK_AND_SHIFT_9],
    ids=["trivial", "Z4 carry", "Z3xZ3 clock-and-shift"],
)
def test_generators_reach_the_whole_basis_on_every_small_shape(d):
    """Products of generators reach every basis position, each a nonzero
    multiple of one, on every shape of at most five positions.  A singleton
    block's unit (f,f,e) is a generator exactly when the support is trivial;
    otherwise a power of (f,f,x) reaches it."""
    grp = d.group
    trivial = len(d.support.members) == 1
    for n in range(1, 6):
        for blocks in block_shapes(n):
            alg = realize(make_presentation(d, blocks, [grp.identity] * n))
            ranges = BlockShape(blocks).block_positions()
            heads = [r.start for r, m in zip(ranges, blocks) if m == 1]
            units = {alg.index[BasisElem(f, f, grp.identity)] for f in heads}
            gens = set(alg.generators())
            assert units <= gens if trivial else units.isdisjoint(gens), blocks
            assert reached_by_generators(alg) == set(range(alg.dim)), blocks


def read_at(coc, order):
    """coc's exponent table read in mu_order, or None where it is no cocycle there."""
    try:
        return validate_cocycle(coc.support, order, coc.values)
    except InvalidInput:
        return None


# equal values at different root orders: a solve whose right-hand side is not zero
# unless the values are
SAME_VALUES = [
    (coc, moved)
    for family in COCYCLE_FAMILIES
    for coc in family
    for k in (2, 3)
    if (moved := read_at(coc, k * coc.order))
]


@st.composite
def twists(draw, coc, scales=(1, 2, 3)):
    """coc in mu_(k * order), k = 1, 2 or 3 (or one of scales), times the
    coboundary of a random u."""
    sub = coc.support
    order = coc.order * draw(st.sampled_from(scales))
    scale = order // coc.order
    e = sub.index[sub.group.identity]
    u = [0 if x == e else draw(st.integers(0, order - 1)) for x in range(len(sub.members))]
    mul = sub.mul_table
    return validate_cocycle(
        sub,
        order,
        [
            [scale * v + u[x] + u[y] - u[mul[x][y]] for y, v in enumerate(row)]
            for x, row in enumerate(coc.values)
        ],
    )


@st.composite
def cocycle_pairs(draw):
    """Two cocycles on one support, in either order: one and a twist of itself, one
    and a twist of another on its support (not cohomologous where the classes
    differ), one and itself or an equal copy, or equal values at two root orders."""
    kind = draw(st.sampled_from(["twist", "other", "identical", "same values"]))
    family = draw(st.sampled_from(COCYCLE_FAMILIES))
    sigma = draw(st.sampled_from(family))
    if kind == "twist":
        tau = draw(twists(sigma))
    elif kind == "other":
        tau = draw(twists(draw(st.sampled_from(family))))
    elif kind == "identical":
        tau = draw(st.sampled_from([sigma, Cocycle(sigma.support, sigma.order, sigma.values)]))
    else:
        sigma, tau = draw(st.sampled_from(SAME_VALUES))
    return tuple(draw(st.permutations([sigma, tau])))


D8_FULL = Subgroup(D8, tuple(D8.elements()))
# sigma(x, y) = -1 when x and y both hold s (r^i s^j is 2i + j): inflated from
# D8/<r> = Z2, a coboundary in mu_4 and not in mu_2 or mu_6
D8_SIGN = cocycle_table(D8_FULL, 2, lambda a, b: a % 2 * (b % 2))
S3_FULL = FULL_S3.support


def odd_permutation(x):
    """Whether the element of S3 at index x is an odd permutation."""
    p = S3.name_of(x)
    return sum(p[i] > p[j] for i, j in itertools.combinations(range(3), 2)) % 2


# sigma(x, y) = -1 when x and y are both odd: inflated from S3/A3 = Z2, and on
# each transposition's subgroup mu(s)^2 = -1, so a coboundary only in mu_4k
S3_SIGN = cocycle_table(S3_FULL, 2, lambda a, b: odd_permutation(a) * odd_permutation(b))
# a cocycle of a nontrivial class and the trivial one, by support: Z2 x Z2,
# Z3 x Z3, Z4 x Z4 in Z4 x Z4 x Z2, and D8 and S3, two non-abelian supports
CLASSES = [
    with_trivial(SHIFTED[0]),
    with_trivial(CLOCK_AND_SHIFT_9),
    with_trivial(CLOCK_AND_SHIFT_16),
    [D8_SIGN, trivial_cocycle(D8_FULL)],
    [S3_SIGN, trivial_cocycle(S3_FULL)],
]


@st.composite
def classed_pairs(draw):
    """Random twists, in mu_k and mu_3k, of two cocycles of CLASSES on one
    support, in either order, and whether they are cohomologous: the two
    classes are distinct in every such mu_lcm (the clock-and-shift classes
    are nontrivial over C, and D8_SIGN's and S3_SIGN's only where 4 divides
    the order), so a pair of one class against the other is drawn on
    purpose, not by chance."""
    family = draw(st.sampled_from(CLASSES))
    sigma, tau = draw(st.sampled_from(family)), draw(st.sampled_from(family))
    return (draw(twists(sigma, (1, 3))), draw(twists(tau, (1, 3)))), sigma == tau


# the Klein clock-and-shift values doubled in mu_4: the same cocycle, read across orders
KLEIN_DOUBLED = cocycle_table(SHIFTED[0].support, 4, lambda a, b: 2 * SHIFTED[0].cocycle.val(a, b))
COHOMOLOGOUS_CASES = st.one_of(cocycle_pairs(), classed_pairs().map(lambda case: case[0]))


@SETTINGS
@given(COHOMOLOGOUS_CASES)
@example((CLOCK_AND_SHIFT_9.cocycle, trivial_cocycle(CLOCK_AND_SHIFT_9.support)))
@example((trivial_cocycle(CLOCK_AND_SHIFT_16.support, 4), CLOCK_AND_SHIFT_16.cocycle))
@example((Z4_CARRY, trivial_cocycle(Z4_FULL)))  # no corrector in mu_2
@example((Z4_CARRY, trivial_cocycle(Z4_FULL, 4)))  # nor in mu_4
@example((Z4_CARRY, trivial_cocycle(Z4_FULL, 8)))  # one in mu_8
@example((S3_SIGN, trivial_cocycle(S3_FULL, 4)))  # across orders, a corrector in mu_4
@example((S3_SIGN, trivial_cocycle(S3_FULL, 3)))  # across orders, none in mu_6
def test_cohomologous_matches_the_dense_solve(pair):
    """The law-checked corrector from the generator rows decides as
    solve_congruences over the dense rows of every non-identity pair, and
    differs from its solution by a homomorphism H -> Z_L."""
    assert_solves_as(cohomologous(*pair), cohomologous_by_dense_solve(*pair), pair)


@SETTINGS
@given(COHOMOLOGOUS_CASES)
@example((CLOCK_AND_SHIFT_16.cocycle, CLOCK_AND_SHIFT_16.cocycle))  # identical
@example((D8_SIGN, Cocycle(D8_FULL, 2, D8_SIGN.values)))  # an equal copy
@example((trivial_cocycle(D8_FULL, 2), trivial_cocycle(D8_FULL, 4)))  # zero right-hand side
@example((SHIFTED[0].cocycle, KLEIN_DOUBLED))  # zero right-hand side across orders
@example((D8_SIGN, trivial_cocycle(D8_FULL, 4)))  # across orders, a corrector in mu_4
@example((D8_SIGN, trivial_cocycle(D8_FULL, 3)))  # across orders, none in mu_6
def test_cohomologous_matches_the_full_replay(pair):
    """The corrector from the generator rows decides as every row of U over
    every non-identity pair applied to the full right-hand side, and differs
    from that solution by a homomorphism H -> Z_L; identical cocycles and a
    zero right-hand side give u = 0 in both."""
    got, want = cohomologous(*pair), cohomologous_by_replay(*pair)
    assert_solves_as(got, want, pair)
    if want is not None and not any(want.exps):
        assert got == want


@SETTINGS
@given(classed_pairs())
def test_classed_pairs_are_drawn_as_labelled(case):
    """The premise of the pairs drawn on purpose: one class against the other
    is never cohomologous, a class against itself always is."""
    pair, same = case
    mu = cohomologous_by_replay(*pair)
    assert (mu is not None) == same
    assert (cohomologous(*pair) is not None) == same


# -- classify against the tuple loop and Burnside's lemma --------------------------------

CLASSIFIED = st.one_of(
    pairs().map(lambda pair: pair[0]), shifted_presentations(), klein_s4_presentations()
)


@SETTINGS
@given(CLASSIFIED)
def test_classify_matches_the_tuple_loop(p):
    """Representatives, orbit sizes, total and shifts are the tuple loop's, field by field."""
    got = classify(p.group, p.shape, p.division)
    want = classify_by_tuples(p.group, p.shape, p.division)
    assert got.representatives == want.representatives
    assert got.orbit_sizes == want.orbit_sizes
    assert got.total == want.total
    assert got.shifts == want.shifts


@SETTINGS
@given(CLASSIFIED)
def test_classify_counts_the_classes_burnside_counts(p):
    assert classify(p.group, p.shape, p.division).count == classes_by_burnside(
        p.group, p.shape, p.division
    )


Z2Z4 = build_abelian([2, 4])
Z6 = build_abelian([6])
# Z2 x Z4 trivial and clock-and-shift, Z6 over {0, 3} with x_3^2 = -1, the
# twisted transposition in S3, the Klein four-group of S4 that conjugation
# moves and D8's twisted center
FORM_DIVISIONS = [
    trivial_division(Z2Z4),
    SHIFTED[1],
    GradedDivisionAlgebra(validate_cocycle(subgroup_closure(Z6, [3]), 2, [[0, 0], [0, 1]])),
    SHIFTED[5],
    SHIFTED[4],
    D8_CENTER[0],
]


@st.composite
def form_presentations(draw):
    d = draw(st.sampled_from(FORM_DIVISIONS))
    d = shift_conjugate(d, draw(st.integers(0, d.group.size - 1)))
    n = sum(blocks := draw(shapes()))
    degrees = draw(st.lists(st.integers(0, d.group.size - 1), min_size=n, max_size=n))
    return make_presentation(d, blocks, degrees)


@SETTINGS
@given(form_presentations())
def test_canonical_form_matches_the_least_form_over_every_shift(p):
    """The form read off the cached coset permutations is the least form that
    multiplies every degree by every admissible shift, and one of classify's
    representatives."""
    shifts = admissible_shifts(p.division)
    want = least_form(p.division.support, p.shape.block_positions(), p.degrees, shifts)
    assert canonical_form(p) == want
    assert want in classify(p.group, p.shape, p.division).representatives


# the three setups, the twisted transposition in S3, the Z2 x Z4 clock-and-shift
# division and the Klein four-group of S4 that conjugation moves, on shapes of
# three to five blocks with repeated sizes, whose blocks share classify's tables
SHARED_DIVISIONS = [*DIVISIONS, SHIFTED[5], SHIFTED[1], SHIFTED[4]]
SHARED_SHAPES = [(1, 1, 1, 1), (1, 1, 1, 1, 1), (2, 1, 2), (2, 2, 2), (1, 2, 1, 2), (2, 1, 1, 2)]


@pytest.mark.parametrize("blocks", SHARED_SHAPES)
@pytest.mark.parametrize("case", range(len(SHARED_DIVISIONS)))
def test_classify_matches_the_oracles_where_block_sizes_repeat(case, blocks):
    """Field by field against the tuple loop wherever |G|^n <= 8,000; the
    count against Burnside's lemma and the orbit sizes against |G|^n always."""
    d = SHARED_DIVISIONS[case]
    total = d.group.size ** sum(blocks)
    got = classify(d.group, blocks, d, budget=total)
    assert sum(got.orbit_sizes) == got.total == total
    assert got.count == classes_by_burnside(d.group, blocks, d)
    if total <= 8000:
        want = classify_by_tuples(d.group, blocks, d)
        assert got.representatives == want.representatives
        assert got.orbit_sizes == want.orbit_sizes
        assert got.shifts == want.shifts


@st.composite
def long_flags(draw):
    """A presentation with 30 to 36 blocks of size 1 or 2, over the trivial
    divisions of Z4 and S3 or the Klein clock-and-shift division."""
    division = draw(st.sampled_from(DIVISIONS))
    blocks = draw(st.lists(st.integers(1, 2), min_size=30, max_size=36))
    n = sum(blocks)
    degrees = draw(st.lists(st.integers(0, division.group.size - 1), min_size=n, max_size=n))
    return make_presentation(division, blocks, degrees)


@st.composite
def graded_or_corrupted(draw):
    """An algebra of CLASSIFIED's presentations, with up to three basis
    degrees replaced by random elements or left as realized."""
    alg = realize(draw(CLASSIFIED))
    degree = list(alg.degree)
    for _ in range(draw(st.integers(0, 3))):
        degree[draw(st.integers(0, alg.dim - 1))] = draw(st.integers(0, alg.group.size - 1))
    return GradedAlgebra(alg.presentation, alg.basis, tuple(degree), alg.index)


@SETTINGS
@given(graded_or_corrupted())
def test_check_grading_matches_the_all_products_walk(alg):
    """The law checked on the generator products decides as the law checked on
    every product, with the same count and, when it fails, the same violations."""
    assert check_grading(alg) == grading_by_products(alg)


# -- realize and the witness map against their per-basis-element builds --------------


@SETTINGS
@given(CLASSIFIED)
def test_realize_matches_the_per_basis_element_build(p):
    """The shared layout and the per-cell degrees give realize_by_basis's
    basis, degrees and index, in its order."""
    got, want = realize(p), realize_by_basis(p)
    assert (got.basis, got.degree) == (want.basis, want.degree)
    assert list(got.index.items()) == list(want.index.items())


@st.composite
def witness_data(draw, presentations=CLASSIFIED):
    """Valid witness data drawn at random: p, a shift g, a block-preserving
    sigma and correctors in H drawn per position, and a target over D^g
    twisted by the coboundary of a random u: H^g -> mu_L, which mu = 1/u
    undoes; the target's degrees follow from the tuple relation."""
    p = draw(presentations)
    grp = p.group
    g = draw(st.integers(0, grp.size - 1))
    sigma = tuple(i for block in p.shape.block_positions() for i in draw(st.permutations(block)))
    members = p.division.support.members
    correctors = tuple(draw(st.sampled_from(members)) for _ in range(p.shape.n))
    shifted = shift_conjugate(p.division, g)
    sup = shifted.support
    order = shifted.order * draw(st.sampled_from([1, 2, 3]))
    scale = order // shifted.order
    u = [0 if h == grp.identity else draw(st.integers(0, order - 1)) for h in sup.members]
    twisted = [
        [
            scale * shifted.cocycle.values[x][y] + u[x] + u[y] - u[sup.index[grp.mul(a, b)]]
            for y, b in enumerate(sup.members)
        ]
        for x, a in enumerate(sup.members)
    ]
    target = GradedDivisionAlgebra(validate_cocycle(sup, order, twisted))
    degrees = [grp.mul(grp.mul(p.degrees[k], correctors[k]), g) for k in sigma]
    p2 = make_presentation(target, p.shape, degrees)
    return p, p2, g, sigma, correctors, Corrector(sup, order, tuple(-x for x in u))


@SETTINGS
@given(witness_data())
def test_build_witness_matches_the_per_basis_element_map(data):
    """On random valid data over twisted, shifted and non-abelian supports with
    mixed correctors, the per-cell map is derive_mapping_by_basis's, item by
    item, and it certifies."""
    p, p2, *rest = data
    w = build_witness(p, p2, *rest)
    mapping, order = derive_mapping_by_basis(p, p2, *rest)
    assert w.scalar_order == order
    assert list(w.mapping.items()) == list(mapping.items())
    assert verify_witness(realize(p), realize(p2), w).ok


@st.composite
def witness_chains(draw):
    """Two witnesses built from random valid data, the second starting where the
    first ends."""
    w1 = build_witness(*draw(witness_data()))
    w2 = build_witness(*draw(witness_data(st.just(w1.target))))
    return w1, w2


def witness_fields(w):
    """A witness as plain data, its corrector by order and exponents."""
    return (
        (w.source, w.target, w.shift, w.sigma, w.correctors),
        (w.mu.order, w.mu.exps, w.scalar_order),
        list(w.mapping.items()),
    )


@SETTINGS
@given(witness_chains())
def test_inverse_and_composite_match_the_corrector_formulas(chain):
    """Inverse and composite witnesses, whose correctors solve the tuple relation,
    are build_witness's on the data of the explicit corrector formulas, field by
    field, over twisted, shifted and non-central supports."""
    w1, w2 = chain
    assert witness_fields(invert_witness(w1)) == witness_fields(
        build_witness(*inverted_witness_data(w1))
    )
    assert witness_fields(compose_witness(w1, w2)) == witness_fields(
        build_witness(*composed_witness_data(w1, w2))
    )


@SETTINGS
@given(rewrites(CLASSIFIED))
def test_engine_witnesses_match_the_per_basis_element_map(pair):
    p, q = pair
    w = iso_algebras(p, q).witness
    mapping, order = derive_mapping_by_basis(p, q, w.shift, w.sigma, w.correctors, w.mu)
    assert w.scalar_order == order
    assert list(w.mapping.items()) == list(mapping.items())


# -- the degree array, invariants and the witness map against their per-cell builds --


@st.composite
def singleton_flags(draw):
    """A presentation over a support of order 1 with every block of size 1."""
    division = draw(st.sampled_from([DIVISIONS[0], DIVISIONS[2], trivial_division(S4)]))
    n = draw(st.integers(1, 6))
    degrees = draw(st.lists(st.integers(0, division.group.size - 1), min_size=n, max_size=n))
    return make_presentation(division, (1,) * n, degrees)


@st.composite
def non_central_or_twisted(draw):
    """A presentation over S3's twisted transposition, the Klein four-group of
    S4 that conjugation moves, or D8's twisted center."""
    d = draw(st.sampled_from([SHIFTED[5], SHIFTED[4], D8_CENTER[0]]))
    n = sum(blocks := draw(shapes()))
    degrees = draw(st.lists(st.integers(0, d.group.size - 1), min_size=n, max_size=n))
    return make_presentation(d, blocks, degrees)


PER_CELL = st.one_of(CLASSIFIED, long_flags(), singleton_flags(), non_central_or_twisted())


@SETTINGS
@given(st.one_of(SEARCH_INPUTS, rewrites(non_central_or_twisted())))
def test_every_engine_yes_map_passes_verify_witness(pair):
    """A YES is decided on the search's data and its map built on first read:
    read, the map of every YES from iso_algebras and iso_pairs passes
    verify_witness, over central, shifted and twisted supports and the
    non-central ones (S3's <(01)>, the Klein four-group of S4 that
    conjugation moves, D8's twisted center)."""
    for verdict in (iso_algebras(*pair), iso_pairs(*pair)):
        if verdict.kind == ISOMORPHIC:
            w = verdict.witness
            assert verify_witness(realize(w.source), realize(w.target), w).ok


@SETTINGS
@given(PER_CELL)
def test_invariants_match_the_count_over_the_basis(p):
    alg = realize(p)
    assert invariants(alg) == invariants_by_basis(alg)


@SETTINGS
@given(PER_CELL)
def test_degrees_and_invariants_match_the_per_cell_build(p):
    """The one degree array by basis position is the cells' degrees, cell by
    cell.  The profiles of J^0, J^1, ... read off the coset configuration are
    the counts over the cells; over a central support, read with nothing
    expanded, they are those counts at the coset representatives, where every
    degree has its representative's dimension."""
    assert realize(p).degree == tuple(itertools.chain.from_iterable(cell_degrees(p)))
    want = invariants_by_cell(p)
    levels = [want.dims, *(profile for _, profile in want.radical_dims)]
    assert [tuple(sorted(d.items())) for d in _coset_profiles(p, False)] == levels
    sup = p.division.support
    if sup.central:
        rep = sup.coset_rep
        dims = dict(want.dims)
        assert all(dims.get(u, 0) == dims.get(rep[u], 0) for u in p.group.elements())
        at_reps = [tuple((u, k) for u, k in profile if rep[u] == u) for profile in levels]
        assert [tuple(sorted(d.items())) for d in _coset_profiles(p, True)] == at_reps


@st.composite
def per_cell_witnesses(draw):
    """A witness built from random valid data, or the engine's on an isomorphic pair."""
    if draw(st.booleans()):
        return build_witness(*draw(witness_data(PER_CELL)))
    return iso_algebras(*draw(rewrites(PER_CELL))).witness


@SETTINGS
@given(per_cell_witnesses())
def test_witness_map_matches_the_per_cell_build(w):
    """Images and exponents, read off the per-key tables by position, are
    those the cells extend one at a time, item for item."""
    want = witness_map_by_cell(w.source, w.target, w.shift, w.sigma, w.mu)
    assert (w.images, w.exponents) == want


@SETTINGS
@given(graded_or_corrupted())
def test_invariants_are_the_presentations_under_corrupted_degrees(alg):
    """invariants reads alg's presentation, not alg.degree: with degrees
    corrupted it is still the presentation's per-cell count.  check_grading is
    the check that examines the degrees: it passes the realized ones and fails
    a corrupted unit (k, k, e), whose degree the law (k,k,e)^2 = (k,k,e) fixes
    at e."""
    assert invariants(alg) == invariants_by_cell(alg.presentation)
    realized = realize(alg.presentation).degree
    e = alg.group.identity
    units = [alg.index[BasisElem(k, k, e)] for k in range(alg.presentation.shape.n)]
    ok = check_grading(alg).ok
    assert ok or alg.degree != realized
    assert not ok or all(alg.degree[u] == realized[u] for u in units)


# -- NO certificates against the per-cell invariants ------------------------------------


def transposition_division(name):
    """The trivial cocycle on the support {e, t} of S3, t the named transposition."""
    return GradedDivisionAlgebra(trivial_cocycle(Subgroup(S3, (0, S3.elem_by_name(name).index))))


def order_two_division(grp, name):
    return GradedDivisionAlgebra(
        trivial_cocycle(subgroup_closure(grp, [grp.elem_by_name(name).index]))
    )


# division parts over one group whose supports differ: trivial against the
# Z2 x Z4 clock-and-shift division, two distinct subgroups of order 2 of
# Z2 x Z4, and S3's <(01)>, twisted or not, against <(02)>
DIFFERING_SUPPORTS = [
    (trivial_division(Z2Z4), SHIFTED[1]),
    (order_two_division(Z2Z4, "(1,0)"), order_two_division(Z2Z4, "(0,2)")),
    (SHIFTED[5], transposition_division("210")),
    (transposition_division("102"), transposition_division("210")),
]


@st.composite
def separated_pairs(draw):
    """Two presentations of one shape: the second over the first's division
    part, drawn from PER_CELL (central, non-central and twisted supports), or
    over a division part whose support differs."""
    if draw(st.booleans()):
        p = draw(PER_CELL)
        d2 = p.division
    else:
        d, d2 = draw(st.sampled_from(DIFFERING_SUPPORTS).flatmap(st.permutations))
        n = sum(blocks := draw(shapes()))
        degrees = draw(st.lists(st.integers(0, d.group.size - 1), min_size=n, max_size=n))
        p = make_presentation(d, blocks, degrees)
    n = p.shape.n
    degrees = draw(st.lists(st.integers(0, p.group.size - 1), min_size=n, max_size=n))
    return p, make_presentation(d2, p.shape, degrees)


Z2 = build_abelian([2])
# two pairs that only a radical power tells apart
RADICAL_ONLY = [
    (make_presentation(trivial_division(Z2), b, x), make_presentation(trivial_division(Z2), b, y))
    for b, x, y in (((1, 1, 1), [0, 0, 1], [0, 1, 0]), ((1, 2, 1), [0, 0, 1, 0], [0, 1, 1, 0]))
]


@SETTINGS
@example(RADICAL_ONLY[0])
@example(RADICAL_ONLY[1])
# equal invariants: (e,e,a) cannot be shifted onto (e,a,a) over Z4
@example(tuple(make_presentation(DIVISIONS[0], (1, 1, 1), x) for x in ([0, 0, 1], [0, 1, 1])))
@given(separated_pairs())
def test_no_certificates_match_the_per_cell_invariants(pair):
    """A NO's invariant mismatch, read off both coset configurations, is the
    separation of both sides' per-cell invariants, and None exactly when those
    agree.  Equal shapes have as many radical powers, and equal dimensions by
    degree give equal total dimensions, so the separation always names a
    degree or a radical power."""
    p, q = pair
    verdict = iso_algebras(p, q)
    assume(verdict.kind == NOT_ISOMORPHIC)
    want1, want2 = invariants_by_cell(p), invariants_by_cell(q)
    want = None
    if want1 != want2:
        detail = separate_by_invariants(p.group, want1, want2)
        assert detail.startswith(("dim at degree ", "radical power "))
        want = InvariantMismatch(detail)
    assert verdict.certificate.invariant_mismatch == want


TRIVIAL_AGAINST_PAULI = tuple(
    make_presentation(d, (1, 2), x) for d, x in zip(DIFFERING_SUPPORTS[0], ([0, 1, 2], [0, 0, 3]))
)


@SETTINGS
@example(TRIVIAL_AGAINST_PAULI)
@given(separated_pairs())
def test_no_certificates_match_the_shared_support_reading(pair):
    """A side over a trivial support counts its cells under their degrees when
    the supports differ too: the mismatch is the one read with reps_only on a
    shared central support alone."""
    verdict = iso_algebras(*pair)
    assume(verdict.kind == NOT_ISOMORPHIC)
    assert verdict.certificate.invariant_mismatch == mismatch_by_shared_support(*pair)


def test_a_trivial_support_counts_its_cells_once_next_to_another_support():
    """Inside _coset_profiles, the side over a trivial support counts its cells'
    degrees, one per cell, with nothing expanded, whatever its caller asks;
    the Z2 x Z4 side keys each cell by its pair of cosets and expands them."""
    p, q = TRIVIAL_AGAINST_PAULI
    with mock.patch("flagiso.algebras.Counter", wraps=Counter) as counted:
        verdict = iso_algebras(p, q)
        again = iso_algebras(q, p)
    assert verdict.kind == again.kind == NOT_ISOMORPHIC
    by_cell = [degree for (degree,) in cell_degrees(p)]
    counts = [call.args[0] for call in counted.call_args_list if call.args]
    assert counts[0] == counts[-1] == by_cell
    assert all(isinstance(key, tuple) for key in counts[1]) and len(counts[1]) == len(by_cell)


def assert_valid(cocycle):
    again = validate_cocycle(cocycle.support, cocycle.order, cocycle.values)
    assert again.values == cocycle.values


def test_every_shifted_cocycle_is_a_cocycle():
    for d in SHIFTED:
        for g in d.group.elements():
            assert_valid(shift_conjugate(d, g).cocycle)


def test_every_transported_cocycle_is_a_cocycle():
    moved = 0
    for d in SHIFTED:
        targets = {shift_conjugate(d, g).support for g in d.group.elements()}
        if d.group == KLEIN:
            targets.add(SHIFTED[3].support)  # across groups, onto a Klein subgroup of S4
        for target in targets:
            for alpha in find_isomorphisms(d.support, target):
                assert_valid(transport(d.cocycle, alpha, target))
                moved += 1
    assert moved == 12 + 6 + 48 + 6 + 3 * 6 + 3  # |Aut| times targets, per division


def carrier(h):
    """(elements, parent group) of a group or a subgroup."""
    return (h.members, h.group) if isinstance(h, Subgroup) else (tuple(h.elements()), h)


def is_isomorphism(f, h1, h2):
    """f is a bijection between the carriers that respects all products."""
    (e1, g1), (e2, g2) = carrier(h1), carrier(h2)
    return (
        sorted(f) == sorted(e1)
        and sorted(f.values()) == sorted(e2)
        and all(f[g1.mul(a, b)] == g2.mul(f[a], f[b]) for a in e1 for b in e1)
    )


def brute_force_isomorphisms(h1, h2):
    (e1, _), (e2, _) = carrier(h1), carrier(h2)
    if len(e1) != len(e2):
        return []
    maps = (dict(zip(e1, images)) for images in itertools.permutations(e2))
    return [f for f in maps if is_isomorphism(f, h1, h2)]


def by_names(group, *names):
    return subgroup_closure(group, [group.elem_by_name(x).index for x in names])


SMALL = [build_abelian([4]), KLEIN, build_abelian([6]), S3, SHIFTED[3].support, SHIFTED[4].support]


def test_find_isomorphisms_matches_brute_force_on_small_groups():
    for h1 in SMALL:
        for h2 in SMALL:
            got = sorted(sorted(f.items()) for f in find_isomorphisms(h1, h2))
            want = sorted(sorted(f.items()) for f in brute_force_isomorphisms(h1, h2))
            assert got == want


def z4_by_z4():
    """Z4 x| Z4, (a,b)(c,d) = (a + (-1)^b c, b + d): as many elements of each order
    as Z4 x Z4, so only the homomorphism law tells the two apart."""
    elems = [(a, b) for a in range(4) for b in range(4)]
    pos = {x: i for i, x in enumerate(elems)}
    return Group(
        [[pos[((a + (-1) ** b * c) % 4, (b + d) % 4)] for c, d in elems] for a, b in elems]
    )


def test_every_found_map_is_a_homomorphism():
    """Larger groups, against the all-pairs check and the size of Aut."""
    semidirect, z4z4 = z4_by_z4(), build_abelian([4, 4])
    assert find_isomorphisms(semidirect, z4z4) == find_isomorphisms(z4z4, semidirect) == []
    cases = [
        (semidirect, 32),
        (build_abelian([2, 4]), 8),
        (build_abelian([3, 3]), 48),
        (build_abelian([2, 2, 2]), 168),
        (by_names(S4, "1230", "2103"), 8),  # a dihedral group of order 8
        (by_names(S4, "1203", "1032"), 24),  # the alternating group A4
        (build_abelian([4, 4]), 96),
    ]
    for h, automorphisms in cases:
        maps = find_isomorphisms(h, h)
        assert len(maps) == automorphisms
        assert len({tuple(sorted(f.items())) for f in maps}) == automorphisms
        assert all(is_isomorphism(f, h, h) for f in maps)


# one group per isomorphism class of abelian groups of order <= 16
ABELIAN_UP_TO_16 = [
    build_abelian(f)
    for f in (
        [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2], [9], [3, 3], [10],
        [11], [12], [2, 6], [13], [14], [15], [16], [2, 8], [4, 4], [2, 2, 4], [2, 2, 2, 2],
    )
]


def subgroups_by_closure(group):
    """Every subgroup of group, as sorted member tuples: from the trivial one,
    close each subgroup found with one more element."""
    found = {(group.identity,)}
    frontier = list(found)
    while frontier:
        h = frontier.pop()
        for x in group.elements():
            if x not in h and (k := closure_by_products(group, (*h, x))) not in found:
                found.add(k)
                frontier.append(k)
    return sorted(found)


def test_closure_walk_matches_the_oracles_on_every_subgroup():
    """Generating sets, closures of random seeds and isomorphism lists, in
    order (equiv_division takes the first map), against the oracles."""
    rng = random.Random(15)
    groups = [*ABELIAN_UP_TO_16, S3, S4]
    for group in groups:
        subs = [Subgroup(group, members) for members in subgroups_by_closure(group)]
        for i, h in enumerate(subs):
            assert list(h.generators) == generators_by_rebuilding(h.members, group)
            if len(h.members) > ISO_SEARCH_CAP:
                continue
            # each subgroup to itself and to the next one of its order
            k = next(k for k in subs[i + 1 :] + subs if len(k.members) == len(h.members))
            for other in [h] if k == h else [h, k]:
                assert find_isomorphisms(h, other) == isomorphisms_by_closing(h, other)
        for _ in range(20):
            seed = rng.choices(range(group.size), k=rng.randint(0, 3))
            assert subgroup_closure(group, seed).members == closure_by_products(group, seed)
    for g1, g2 in itertools.permutations(groups, 2):
        if g1.size == g2.size:
            assert find_isomorphisms(g1, g2) == isomorphisms_by_closing(g1, g2)


def test_central_flag_matches_the_center_on_every_subgroup():
    """Subgroup.central, read off the table with an early exit, against H <= Z(G),
    the center found by conjugation, on every subgroup of the abelian groups of
    order <= 16, S3, S4 and D8."""
    central_counts = []
    for group in [*ABELIAN_UP_TO_16, S3, S4, D8]:
        center = {
            z for z in group.elements() if all(group.conj(z, g) == z for g in group.elements())
        }
        subs = [Subgroup(group, members) for members in subgroups_by_closure(group)]
        for h in subs:
            assert h.central == (set(h.members) <= center), (group, h.members)
        central_counts.append(sum(h.central for h in subs))
    assert central_counts[-3:] == [1, 1, 2]  # {e} in S3 and S4; {e} and {e, r^2} in D8


# -- equivalence of elementary gradings ------------------------------------------------

ELEMENTARY = [
    trivial_division(build_abelian(f))
    for f in ([2], [3], [4], [2, 2], [5], [6], [2, 4], [3, 3], [8], [2, 2, 2])
]


@st.composite
def elementary_pairs(draw):
    """Two elementary presentations of one shape, possibly over different groups.

    Each tuple takes its entries from at most three values, so that pairs
    with equal value counts, and with them equivalent pairs, are common.
    """
    blocks = draw(shapes(max_n=5))
    n = sum(blocks)

    def presentation():
        division = draw(st.sampled_from(ELEMENTARY))
        values = draw(st.lists(st.integers(0, division.group.size - 1), min_size=1, max_size=3))
        degrees = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
        return make_presentation(division, blocks, degrees)

    return presentation(), presentation()


def equivalent_by_brute_force(p, q) -> bool:
    """Some block-preserving sigma maps the cell degrees of p one-to-one onto
    those of q under (i, j) -> (sigma i, sigma j), over the cells i <= j by block."""
    shape = p.shape
    cells = [
        (i, j)
        for i in range(shape.n)
        for j in range(shape.n)
        if shape.block_of(i) <= shape.block_of(j)
    ]

    def degree(pres, i, j):
        return pres.group.mul(pres.degrees[i], pres.group.inv(pres.degrees[j]))

    for perms in itertools.product(*map(itertools.permutations, shape.block_positions())):
        sigma = [k for perm in perms for k in perm]
        images = {(degree(p, i, j), degree(q, sigma[i], sigma[j])) for i, j in cells}
        if len({u for u, _ in images}) == len(images) == len({w for _, w in images}):
            return True
    return False


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(elementary_pairs())
def test_equivalence_decision_matches_brute_force(pair):
    p, q = pair
    assert (equiv_elementary(p, q).kind == EQUIVALENT) == equivalent_by_brute_force(p, q)


def compositions(n):
    """Every block shape of n positions."""
    if n == 0:
        return [()]
    return [(m, *rest) for m in range(1, n + 1) for rest in compositions(n - m)]


def cell_count(blocks) -> int:
    return (sum(blocks) ** 2 + sum(m * m for m in blocks)) // 2


# by cell count, every shape of at most six positions
SHAPES_BY_CELLS: dict[int, list[tuple[int, ...]]] = {}
for _n in range(1, 7):
    for _blocks in compositions(_n):
        SHAPES_BY_CELLS.setdefault(cell_count(_blocks), []).append(_blocks)

# division parts over a support of order 2 or 4: the order-2 support of Z2,
# Z4, Z6 and Z2 x Z4 with the trivial cocycle, and the clock-and-shift Klein
SUPPORTED = [
    GradedDivisionAlgebra(trivial_cocycle(Subgroup(grp, (grp.identity, x))))
    for grp, x in (
        (build_abelian([2]), 1),
        (build_abelian([4]), 2),
        (build_abelian([6]), 3),
        (build_abelian([2, 4]), 4),
    )
] + [pauli(2, KLEIN, ["(1,0)", "(0,1)"])]


@st.composite
def equiv_witness_cases(draw):
    """(source, target, witness) for verify_equiv_witness.

    The source is elementary, or rarely over a support of order 2, which is
    refused.  The target is the drawn one, one whose degrees all coincide
    (merged), one over a nontrivial support, or one of another shape; the
    last two take a shape of the source's dimension when one exists.  sigma
    is the engine's on the drawn pair when that is equivalent, one that
    permutes within blocks, any permutation (across blocks too), or not a
    permutation; the component map is the engine's, a drawn one or none.
    """
    p, q = draw(elementary_pairs())
    found = equiv_elementary(p, q).equiv_witness
    target = draw(st.sampled_from(["drawn", "merged", "support", "reshaped"]))
    if target == "merged":
        value = draw(st.integers(0, q.group.size - 1))
        q = make_presentation(q.division, q.shape.blocks, [value] * q.shape.n)
    elif target in ("support", "reshaped"):
        cells = len(p.shape.cells())

        def fits(division):
            k = len(division.support.members)
            shapes = SHAPES_BY_CELLS.get(cells // k, []) if cells % k == 0 else []
            return [b for b in shapes if division is not q.division or b != p.shape.blocks]

        divisions = [d for d in (SUPPORTED if target == "support" else [q.division]) if fits(d)]
        if divisions:  # else the drawn target stays: no shape has the source's dimension
            division = draw(st.sampled_from(divisions))
            blocks = draw(st.sampled_from(fits(division)))
            m = sum(blocks)
            degrees = st.lists(st.integers(0, division.group.size - 1), min_size=m, max_size=m)
            q = make_presentation(division, blocks, draw(degrees))
    n = p.shape.n
    how = draw(st.sampled_from(["engine", "engine", "blockwise", "any", "malformed"]))
    if how == "engine" and found is not None:
        ew = dataclasses.replace(found, target=q)
    else:
        if how == "malformed":
            sigma = draw(
                st.one_of(
                    st.lists(st.integers(0, n), min_size=n - 1, max_size=n + 1),
                    st.just([float(i) for i in range(n)]),
                )
            )
        elif how == "any":
            sigma = draw(st.permutations(range(n)))
        else:
            sigma = [k for block in p.shape.block_positions() for k in draw(st.permutations(block))]
        ew = EquivWitness(p, q, {}, tuple(sigma), {})
    stated = st.dictionaries(
        st.integers(0, p.group.size - 1), st.integers(0, q.group.size - 1), max_size=3
    )
    ew = dataclasses.replace(ew, component_map=draw(st.one_of(st.just(ew.component_map), stated)))
    if draw(st.sampled_from([False] * 9 + [True])):  # both over one support of order 2
        division = draw(st.sampled_from(SUPPORTED[:4]))
        size = division.group.size
        p, q = (make_presentation(division, r.shape, [d % size for d in r.degrees]) for r in (p, q))
    return p, q, ew


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(equiv_witness_cases())
def test_the_equivalence_check_on_presentations_agrees_with_the_degree_arrays(case):
    """_equiv_report, on the presentations, against the check on the realized
    degree arrays, which repeats a split component's line once per cell."""
    p, q, ew = case
    alg, alg2 = realize(p), realize(q)
    want = verify_equiv_by_degrees(alg, alg2, ew)
    want = WitnessReport(want.ok, want.checked_pairs, tuple(dict.fromkeys(want.failures)))
    assert _equiv_report(p, q, ew) == want
    assert verify_equiv_witness(alg, alg2, ew) == want


# -- table validation --------------------------------------------------------------------


def random_latin_square(rng, n):
    """Row by row: a Latin rectangle always extends by a row (Hall's theorem), so each
    row is a perfect matching of columns to missing symbols, augmented in random order."""
    rows = []
    for _ in range(n):
        missing = [sorted(set(range(n)) - {row[j] for row in rows}) for j in range(n)]
        column_of = {}

        def augment(j, seen):
            for v in rng.sample(missing[j], len(missing[j])):
                if v not in seen:
                    seen.add(v)
                    if v not in column_of or augment(column_of[v], seen):
                        column_of[v] = j
                        return True
            return False

        for j in rng.sample(range(n), n):
            assert augment(j, set())
        row = [0] * n
        for v, j in column_of.items():
            row[j] = v
        rows.append(row)
    return rows


def random_loop(rng, n):
    """A principal isotope of a random Latin square: x o y = u(x) * v(y), where u undoes
    right multiplication by b and v undoes left multiplication by a, has identity a*b."""
    sq = random_latin_square(rng, n)
    a, b = rng.randrange(n), rng.randrange(n)
    over_b = {sq[z][b]: z for z in range(n)}
    under_a = {sq[a][z]: z for z in range(n)}
    return [[sq[over_b[x]][under_a[y]] for y in range(n)] for x in range(n)]


def relabeled(rng, table):
    """The same operation on the elements renamed by a random permutation."""
    pi = rng.sample(range(len(table)), len(table))
    out = [[0] * len(table) for _ in table]
    for x, row in enumerate(table):
        for y, xy in enumerate(row):
            out[pi[x]][pi[y]] = pi[xy]
    return out


def intercalate_swapped(rng, table, e):
    """table with one 2x2 subsquare off the identity's row and column flipped: still a
    Latin square with identity e, and a loop whose failing triples are few."""
    n = len(table)
    for _ in range(400):
        r1, r2, c1 = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        c2 = table[r2].index(table[r1][c1])
        if e not in (r1, r2, c1, c2) and r1 != r2 and table[r1][c2] == table[r2][c1]:
            out = [list(row) for row in table]
            out[r1][c1], out[r1][c2] = out[r1][c2], out[r1][c1]
            out[r2][c1], out[r2][c2] = out[r2][c2], out[r2][c1]
            return out
    return None


TABLE_GROUPS = [S3, S4, make_sym(5)[0]] + [
    build_abelian(f) for f in ([2], [3], [4], [2, 2], [5], [6], [2, 4], [3, 3], [2, 2, 2], [12])
]


def test_validate_table_matches_the_triple_loop():
    """Accept exactly the associative tables; every reported triple really fails."""
    rng = random.Random(0)
    tables = [random_loop(rng, n) for n in range(2, 13) for _ in range(30)]
    for g in TABLE_GROUPS:
        tables.append(relabeled(rng, g.table))
        if g.size <= 24:
            tables.append(intercalate_swapped(rng, g.table, g.identity))
    answers = Counter()
    for t in filter(None, tables):
        associative = associative_by_triples(t)
        try:
            validate_table(t)
        except InvalidInput as e:
            assert e.code == "non-associative" and not associative
            triple = re.fullmatch(r"not associative at triple \((\d+),(\d+),(\d+)\)", str(e))
            a, b, c = map(int, triple.groups())
            assert t[t[a][b]][c] != t[a][t[b][c]]
        else:
            assert associative
        answers[associative] += 1
    assert answers[True] >= len(TABLE_GROUPS) and answers[False] >= 100


# -- malformed documents ------------------------------------------------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "presentations"
PAIR = [str(FIXTURES / "klein_pauli.json"), str(FIXTURES / "klein_pauli_shifted.json")]


def saved_form(path: Path):
    """The document save_presentation writes: a table group and a twisted division."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "saved.json"
        save_presentation(load_presentation(str(path)), str(out))
        return json.loads(out.read_text(encoding="utf-8"))


FIXTURE_FILES = sorted(FIXTURES.glob("*.json"))
DOCUMENTS = [
    *(("presentation", json.loads(f.read_text(encoding="utf-8"))) for f in FIXTURE_FILES),
    *(("presentation", saved_form(f)) for f in FIXTURE_FILES),
    ("witness", witness_to_obj(iso_algebras(*map(load_presentation, PAIR)).witness)),
]

NAMES = ["(0)", "(1)", "(2)", "(0,0)", "(1,0)", "(0,1)", "(1,1)"]
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
    | st.sampled_from(NAMES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def field_paths(node, prefix=()):
    """The path of every dict value and list item in a JSON document, at any depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, child in items:
        out += [(*prefix, key), *field_paths(child, (*prefix, key))]
    return out


@st.composite
def mutated_documents(draw):
    """A document with one field, at any depth, replaced by a random JSON value or deleted."""
    kind, doc = draw(st.sampled_from(DOCUMENTS))
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(field_paths(doc)))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if draw(st.booleans()):
        del node[path[-1]]
    else:
        node[path[-1]] = draw(JSON_VALUES)
    return kind, doc


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mutated_documents())
def test_malformed_documents_exit_0_or_2(mutated):
    """validate, dims and verify-witness decide or refuse with exit 2; they never crash."""
    kind, doc = mutated
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        if kind == "witness":
            commands = [["verify-witness", *PAIR, str(path)]]
        else:
            commands = [["validate", str(path)], ["dims", str(path)]]
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            refused = code == 2 and err.getvalue().startswith(
                ("file error:", "parse error:", "validation error:")
            )
            assert code == 0 or refused, (argv[0], code, err.getvalue())
