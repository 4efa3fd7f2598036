"""Randomized properties of the decision engine, on small same-division pairs.

Three setups: Z4 with the trivial division, Z2 x Z2 with the clock-and-shift
division of degree 2, and S3 with the trivial division; shapes have at most
three blocks and n <= 4.  Runs are derandomized and keep no example database,
so every run draws the same examples.
"""

import json

from conftest import make_sym
from hypothesis import given, settings
from hypothesis import strategies as st

from flagiso import (
    ISOMORPHIC,
    build_abelian,
    canonical_form,
    iso_algebras,
    make_presentation,
    pauli,
    realize,
    shift_conjugate,
    trivial_division,
    verify_witness,
)
from flagiso.io import witness_from_obj, witness_to_obj

KLEIN = build_abelian([2, 2])
DIVISIONS = [
    trivial_division(build_abelian([4])),
    pauli(2, KLEIN, ["(1,0)", "(0,1)"]),
    trivial_division(make_sym(3)[0]),
]

SETTINGS = settings(derandomize=True, database=None, max_examples=120, deadline=None)


@st.composite
def shapes(draw):
    """Block sizes with at most three blocks summing to at most 4."""
    n = draw(st.integers(1, 4))
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
def rewrites(draw):
    """A presentation and an isomorphic copy: shift g, in-block shuffle, coset moves."""
    p, _ = draw(pairs())
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
