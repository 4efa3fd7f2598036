"""A committed output corpus: graded invariants and isomorphism verdicts,
one readable line per case, against tests/golden/corpus.txt.

The cases are drawn from a fixed seed over central supports (the
clock-and-shift divisions of Z2 x Z4 and Z3 x Z3, the trivial division of
Z4), supports that are not central or carry a twisted cocycle (S3's <(01)>
with and without its twist, the Klein four-group of S4 that conjugation
moves, D8's twisted center) and the trivial divisions of S3 and S4.  Each
``inv`` line holds ``invariants(realize(p))`` with element names.  Each
``iso`` line holds an ``iso_algebras`` verdict: its kind and certificate
repr, and for a YES the shift g, sigma, the correctors h, the corrector mu,
the scalar order and a digest of the map's image and exponent arrays.  NO
pairs are drawn on purpose: random degrees over one division part, over a
shifted one, and over division parts whose supports differ.

A diff of the file names each changed case.  Regenerate it, after a change
meant to alter this output, with

    PYTHONPATH=src python tests/test_corpus.py
"""

import hashlib
import random
import sys
import time
from pathlib import Path

from conftest import dihedral_8, make_sym

from flagiso import (
    GradedDivisionAlgebra,
    Subgroup,
    build_abelian,
    invariants,
    iso_algebras,
    make_presentation,
    pauli,
    realize,
    shift_conjugate,
    trivial_cocycle,
    trivial_division,
    validate_cocycle,
)

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.txt"
SEED = 20260

S3, S4, D8 = make_sym(3)[0], make_sym(4)[0], dihedral_8()
Z2Z4 = build_abelian([2, 4])
D8_CENTER = Subgroup(D8, (0, 4))


def transposition(name, twisted):
    """S3's support {e, t}, t the named transposition, with sigma(t, t) = -1 if twisted."""
    sub = Subgroup(S3, (S3.identity, S3.elem_by_name(name).index))
    if twisted:
        return GradedDivisionAlgebra(validate_cocycle(sub, 2, [[0, 0], [0, 1]]))
    return GradedDivisionAlgebra(trivial_cocycle(sub))


# (label, division part): central, then non-central or twisted, then trivial
DIVISIONS = [
    ("z2z4_pauli", pauli(2, Z2Z4, ["(1,0)", "(0,2)"])),
    ("z3z3_pauli", pauli(3, build_abelian([3, 3]), ["(1,0)", "(0,1)"])),
    ("z4_trivial", trivial_division(build_abelian([4]))),
    ("s3_01_twisted", transposition("102", True)),
    ("s3_01", transposition("102", False)),
    ("s4_moved_klein", pauli(2, S4, ["1023", "0132"])),
    # D8's center {e, r^2} with x_{r^2}^2 = -1
    ("d8_twisted_center", GradedDivisionAlgebra(validate_cocycle(D8_CENTER, 4, [[0, 0], [0, 2]]))),
    ("s3_trivial", trivial_division(S3)),
    ("s4_trivial", trivial_division(S4)),
]

# (label, division part) pairs of one group: supports that differ, then
# cocycles that differ on one support, by a coboundary (D8's center) or not
# over the roots of unity of their order (S3's <(01)>)
PAIRED = [
    (("z2z4_trivial", trivial_division(Z2Z4)), DIVISIONS[0]),
    (DIVISIONS[4], ("s3_02", transposition("210", False))),
    (DIVISIONS[3], DIVISIONS[7]),
    (DIVISIONS[6], ("d8_center", GradedDivisionAlgebra(trivial_cocycle(D8_CENTER)))),
    (DIVISIONS[3], DIVISIONS[4]),
]


def draw_shape(rng):
    """Block sizes summing to n <= 5, in up to four blocks."""
    n = rng.randrange(1, 6)
    cuts = sorted(rng.sample(range(1, n), rng.randrange(min(3, n - 1) + 1)))
    bounds = [0, *cuts, n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def draw(rng, d, blocks):
    """A presentation over d of this shape with random degrees."""
    return make_presentation(d, blocks, [rng.randrange(d.group.size) for _ in range(sum(blocks))])


def names(grp, elems):
    return "[" + " ".join(grp.name_of(x) for x in elems) + "]"


def describe(label, p):
    return f"{label} {p.shape.blocks} {names(p.group, p.degrees)}"


def profile(grp, dims):
    return " ".join(f"{grp.name_of(u)}:{k}" for u, k in dims)


def inv_line(label, p):
    inv = invariants(realize(p))
    grp = p.group
    radical = "".join(f" | J{c} {profile(grp, dims)}" for c, dims in inv.radical_dims)
    return f"inv {describe(label, p)} -> dim {inv.total_dim} | {profile(grp, inv.dims)}{radical}"


def iso_line(label, p, label2, p2):
    verdict = iso_algebras(p, p2)
    head = f"iso {describe(label, p)} ~ {describe(label2, p2)} -> {verdict.kind}"
    w = verdict.witness
    if w is None:
        return f"{head} {verdict.certificate!r}"
    grp = p.group
    digest = hashlib.sha256(repr((w.images, w.exponents)).encode()).hexdigest()[:16]
    return (
        f"{head} g={grp.name_of(w.shift)} sigma={w.sigma} h={names(grp, w.correctors)}"
        f" mu={w.mu.order}:{w.mu.exps} scalar={w.scalar_order} map={digest}"
    )


def rewrite(rng, p, d2=None):
    """An isomorphic copy of p: a shift g, an in-block shuffle and coset moves.
    Over d2 instead of p's division part, the copy is isomorphic only if d2
    is."""
    grp, members = p.group, p.division.support.members
    g = rng.randrange(grp.size)
    sigma = []
    for block in p.shape.block_positions():
        positions = list(block)
        rng.shuffle(positions)
        sigma += positions
    degrees = [grp.mul(grp.mul(p.degrees[k], rng.choice(members)), g) for k in sigma]
    d2 = p.division if d2 is None else d2
    return grp.name_of(g), make_presentation(shift_conjugate(d2, g), p.shape, degrees)


def render() -> str:
    """The corpus text, one line per case."""
    rng = random.Random(SEED)
    lines = []
    for label, d in DIVISIONS:
        for _ in range(12):
            lines.append(inv_line(label, draw(rng, d, draw_shape(rng))))
        for _ in range(28):
            p = draw(rng, d, draw_shape(rng))
            kind = rng.randrange(4)
            if kind == 0:  # a NO on purpose, or by chance a YES: random degrees
                tag, q = label, draw(rng, d, p.shape.blocks)
            elif kind == 1:  # isomorphic by construction
                g, q = rewrite(rng, p)
                tag = f"{label}^{g}"
            elif kind == 2:  # a near miss: two of p's degrees swapped
                degrees = list(p.degrees)
                i, j = rng.randrange(len(degrees)), rng.randrange(len(degrees))
                degrees[i], degrees[j] = degrees[j], degrees[i]
                tag, q = label, make_presentation(d, p.shape, degrees)
            else:  # random degrees over a shifted division part
                g = rng.randrange(d.group.size)
                q = draw(rng, shift_conjugate(d, g), p.shape.blocks)
                tag = f"{label}^{d.group.name_of(g)}"
            lines.append(iso_line(label, p, tag, q))
    for (label, d), (label2, d2) in PAIRED:
        for _ in range(12):
            p = draw(rng, d, draw_shape(rng))
            if rng.randrange(2):
                tag, q = label2, draw(rng, d2, p.shape.blocks)
            else:
                g, q = rewrite(rng, p, d2)
                tag = f"{label2}^{g}"
            lines.append(iso_line(label, p, tag, q))
            lines.append(iso_line(tag, q, label, p))
    return "".join(line + "\n" for line in lines)


def test_the_corpus_matches_the_golden():
    start = time.perf_counter()
    got = render()
    elapsed = time.perf_counter() - start
    want = CORPUS.read_text()
    changed = [
        f"line {k}:\n  want {a}\n  got  {b}"
        for k, (a, b) in enumerate(zip(want.splitlines(), got.splitlines()), 1)
        if a != b
    ]
    assert changed[:5] == [] and got == want
    assert elapsed < 3, f"the corpus took {elapsed:.2f} s to render"


if __name__ == "__main__":
    CORPUS.write_text(render())
    print(f"wrote {CORPUS}", file=sys.stderr)
