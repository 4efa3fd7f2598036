"""Randomized properties of the decision engines and the loaders.

Isomorphism: small same-division pairs in three setups, Z4 with the trivial
division, Z2 x Z2 with the clock-and-shift division of degree 2, and S3 with
the trivial division; shapes have at most three blocks and n <= 4.
Equivalence: elementary pairs over ten abelian groups of order <= 9 with
n <= 5, against a brute-force search over block-preserving permutations.
Loaders: every fixture, its saved form and one fixture witness with one
field replaced by a random JSON value or deleted, run through the CLI.  Runs
are derandomized and keep no example database, so every run draws the same
examples.
"""

import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

from conftest import make_sym
from hypothesis import given, settings
from hypothesis import strategies as st

from flagiso import (
    EQUIVALENT,
    ISOMORPHIC,
    build_abelian,
    canonical_form,
    equiv_elementary,
    iso_algebras,
    make_presentation,
    pauli,
    realize,
    shift_conjugate,
    trivial_division,
    verify_witness,
)
from flagiso.cli import main
from flagiso.io import load_presentation, save_presentation, witness_from_obj, witness_to_obj

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
