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

Each ``canon`` line holds a ``canonical_form``, and the ``classify`` lines
the class rows of small instances.  Each ``equiv`` line holds an
``equiv_elementary`` or ``equiv_check`` verdict on a pair over the trivial
divisions of Z2, Z4, Z6 and S3, within one group or across two: lam, sigma
and the component map of an EQUIVALENT, or the reason.  Each
``verify_equiv`` line holds the report of ``verify_equiv_witness`` on an
engine witness or on a corrupted copy of it: a sigma that moves positions
across blocks, one that splits a component (each split component is named
once), a target whose degrees all
coincide (so components merge), a misstated component map, or a source over
a nontrivial support.  Each ``coh`` line holds ``cohomologous`` on a
clock-and-shift cocycle and a twist of it: by a coboundary, in a larger
root order, or into a class it is not in, as the trivial cocycle or a power.

A diff of the file names each changed case.  Regenerate it, after a change
meant to alter this output, with

    PYTHONPATH=src python tests/test_corpus.py
"""

import dataclasses
import hashlib
import random
import sys
import time
from pathlib import Path

from conftest import dihedral_8, make_sym

import flagiso.algebras
import flagiso.iso
from flagiso import (
    EQUIVALENT,
    GradedDivisionAlgebra,
    Subgroup,
    build_abelian,
    canonical_form,
    classify,
    cohomologous,
    equiv_check,
    equiv_elementary,
    invariants,
    iso_algebras,
    make_presentation,
    pauli,
    realize,
    shift_conjugate,
    trivial_cocycle,
    trivial_division,
    validate_cocycle,
    verify_equiv_witness,
)

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.txt"
SEED = 20260

S3, S4, D8 = make_sym(3)[0], make_sym(4)[0], dihedral_8()
Z2, Z4, Z6 = (build_abelian([m]) for m in (2, 4, 6))
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
    lines += canon_lines(random.Random(SEED + 1))
    lines += classify_lines()
    lines += equiv_lines(random.Random(SEED + 2))
    lines += coh_lines(random.Random(SEED + 3))
    return "".join(line + "\n" for line in lines)


def canon_lines(rng):
    lines = []
    for label, d in DIVISIONS:
        for _ in range(4):
            p = draw(rng, d, draw_shape(rng))
            lines.append(f"canon {describe(label, p)} -> {names(p.group, canonical_form(p))}")
    return lines


# (label, group, blocks, division part): the classify benchmark's small
# instances, then two of its enumerate_classes instances
CLASSIFY = [
    ("z4_trivial", Z4, (1, 1, 1), trivial_division(Z4)),
    ("z2z4_pauli", Z2Z4, (1, 1), DIVISIONS[0][1]),
    ("z6_trivial", Z6, (1, 2), trivial_division(Z6)),
    ("s3_trivial", S3, (1, 1, 1), trivial_division(S3)),
]


def classify_lines():
    lines = []
    for label, grp, blocks, d in CLASSIFY:
        cls = classify(grp, blocks, d)
        head = f"classify {label} {blocks}"
        lines.append(
            f"{head} -> {cls.count} classes of {cls.total} tuples, shifts {names(grp, cls.shifts)}"
        )
        lines += [f"{head} [{' '.join(rep)}] x{size}" for rep, size in cls.rows()]
    return lines


def by_names(grp, grp2, pairs):
    return {grp.elem_by_name(a).index: grp2.elem_by_name(b).index for a, b in pairs}


def automorphism(grp, image):
    return {x: image(x) for x in range(grp.size)}


S3_T = S3.elem_by_name("102").index

# (label, group, label2, group2, relabeling): an injective homomorphism from
# a subgroup of the first group into the second, as an element map.  It keeps
# every coincidence a b^-1 = c d^-1, so a tuple over its domain is equivalent
# to its image: automorphisms within a group, embeddings across two
RELABELINGS = [
    ("z2", Z2, "z2", Z2, automorphism(Z2, lambda x: x)),
    ("z4", Z4, "z4", Z4, automorphism(Z4, lambda x: Z4.power(x, 3))),
    ("z6", Z6, "z6", Z6, automorphism(Z6, lambda x: Z6.power(x, 5))),
    ("s3", S3, "s3", S3, automorphism(S3, lambda x: S3.conj(x, S3_T))),
    ("z2", Z2, "z4", Z4, by_names(Z2, Z4, [("(0)", "(0)"), ("(1)", "(2)")])),
    ("z2", Z2, "z6", Z6, by_names(Z2, Z6, [("(0)", "(0)"), ("(1)", "(3)")])),
    ("z2", Z2, "s3", S3, by_names(Z2, S3, [("(0)", "012"), ("(1)", "102")])),
    ("z4", Z4, "z6", Z6, by_names(Z4, Z6, [("(0)", "(0)"), ("(2)", "(3)")])),
    ("z6", Z6, "s3", S3, by_names(Z6, S3, [("(0)", "012"), ("(2)", "120"), ("(4)", "201")])),
]


def element_map(grp, grp2, mapping):
    return "{" + ", ".join(f"{grp.name_of(a)}:{grp2.name_of(b)}" for a, b in sorted(mapping.items())) + "}"


def order_two_support(grp):
    """The division part over the least element of order 2, with the trivial cocycle."""
    x = next(x for x in range(grp.size) if grp.order_of(x) == 2)
    return GradedDivisionAlgebra(trivial_cocycle(Subgroup(grp, (grp.identity, x))))


def equiv_pair(rng, grp, grp2, relabel):
    """(source, target, kind) over the trivial divisions of grp and grp2."""
    d, d2 = trivial_division(grp), trivial_division(grp2)
    blocks = draw_shape(rng)
    n = sum(blocks)
    kind = rng.randrange(4)
    if kind == 3:  # random degrees, NOT_EQUIVALENT on purpose or by chance a YES
        return draw(rng, d, blocks), draw(rng, d2, blocks), "random"
    domain = sorted(relabel)
    source = [rng.choice(domain) for _ in range(n)]
    g = rng.randrange(grp2.size)
    image = [grp2.mul(relabel[x], g) for x in source]
    for block in make_presentation(d, blocks, source).shape.block_positions():
        moved = [image[i] for i in block]
        rng.shuffle(moved)
        for i, x in zip(block, moved):
            image[i] = x
    p = make_presentation(d, blocks, source)
    if kind == 0:  # equivalent by construction
        return p, make_presentation(d2, blocks, image), "relabeled"
    if kind == 1:  # a near miss: one degree of the image replaced
        image[rng.randrange(n)] = rng.randrange(grp2.size)
        return p, make_presentation(d2, blocks, image), "near miss"
    # random degrees over another shape
    other = draw_shape(rng)
    while other == blocks:
        other = draw_shape(rng)
    return p, draw(rng, d2, other), "reshaped"


def equiv_verdict(verdict, grp, grp2):
    ew = verdict.equiv_witness
    if ew is None:
        return f"{verdict.kind}: {verdict.reason}"
    return (
        f"{verdict.kind} lam={element_map(grp, grp2, ew.lam)} sigma={ew.sigma}"
        f" components={element_map(grp, grp2, ew.component_map)}"
    )


def report_text(report):
    return f"ok={report.ok} checked={report.checked_pairs} failures={report.failures}"


def verify_equiv_lines(head, p, q, ew):
    """The report on the witness and on each corruption that applies to it."""
    alg, alg2 = realize(p), realize(q)
    grp, grp2 = p.group, q.group

    def check(name, witness, source=alg, target=alg2):
        return f"verify_equiv {head} {name} -> {report_text(verify_equiv_witness(source, target, witness))}"

    def with_sigma(sigma):
        return dataclasses.replace(ew, sigma=tuple(sigma))

    def swapped(i, j):
        sigma = list(ew.sigma)
        sigma[i], sigma[j] = sigma[j], sigma[i]
        return sigma

    lines = [check("witness", ew)]
    blocks = p.shape.block_positions()
    if len(blocks) > 1:
        sigma = swapped(blocks[0].start, blocks[-1].start)
        lines.append(check(f"across blocks sigma={tuple(sigma)}", with_sigma(sigma)))
    for i, j in ((i, j) for b in blocks for i in b for j in b if i < j):
        sigma = swapped(i, j)
        report = verify_equiv_witness(alg, alg2, with_sigma(sigma))
        if any("split" in f for f in report.failures):
            lines.append(check(f"split sigma={tuple(sigma)}", with_sigma(sigma)))
            break
    if len(set(alg.degree)) > 1:
        flat = make_presentation(q.division, q.shape.blocks, [grp2.identity] * q.shape.n)
        lines.append(check(f"merged target {names(grp2, flat.degrees)}", ew, target=realize(flat)))
    u = min(ew.component_map)
    misstated = {**ew.component_map, u: (ew.component_map[u] + 1) % grp2.size}
    lines.append(check(
        f"components={element_map(grp, grp2, misstated)}",
        dataclasses.replace(ew, component_map=misstated),
    ))
    source = make_presentation(order_two_support(grp), p.shape.blocks, p.degrees)
    target = make_presentation(order_two_support(grp2), q.shape.blocks, q.degrees)
    lines.append(check("over order-2 supports", ew, realize(source), realize(target)))
    return lines


def equiv_pairs(rng):
    """Yield (head, p, q) for each pair of the equiv lines, in order."""
    for label, grp, label2, grp2, relabel in RELABELINGS:
        for _ in range(8):
            p, q, kind = equiv_pair(rng, grp, grp2, relabel)
            yield f"{describe(label, p)} ~ {describe(label2, q)} ({kind})", p, q


def equiv_lines(rng):
    lines = []
    for head, p, q in equiv_pairs(rng):
        grp, grp2 = p.group, q.group
        verdict = equiv_elementary(p, q)
        lines.append(f"equiv elementary {head} -> {equiv_verdict(verdict, grp, grp2)}")
        lines.append(f"equiv check {head} -> {equiv_verdict(equiv_check(p, q), grp, grp2)}")
        if verdict.equiv_witness is not None:
            lines += verify_equiv_lines(head, p, q, verdict.equiv_witness)
    return lines


# (label, clock-and-shift division part): Z2 x Z4, Z3^2, and Z4^2 inside Z4 x Z4 x Z2
CLOCK_AND_SHIFT = [
    DIVISIONS[0],
    DIVISIONS[1],
    ("z4z4_pauli", pauli(4, build_abelian([4, 4, 2]), ["(1,0,0)", "(0,1,0)"])),
]


def twist(coc, order, u, scale=1):
    """scale * coc read in mu_order (a multiple of its order), times the
    coboundary of u (exponents mod order by support position, 0 at e)."""
    sub = coc.support
    k = order // coc.order * scale
    prod = sub.mul_table
    rows = [
        [(k * v + u[a] + u[b] - u[prod[a][b]]) % order for b, v in enumerate(row)]
        for a, row in enumerate(coc.values)
    ]
    return validate_cocycle(sub, order, rows)


def coh_lines(rng):
    lines = []
    for label, d in CLOCK_AND_SHIFT:
        sigma, sub = d.cocycle, d.support
        t = sigma.order
        e = sub.index[sub.group.identity]

        def draw_u(order):
            return tuple(0 if a == e else rng.randrange(order) for a in range(len(sub.members)))

        zero = (0,) * len(sub.members)
        u1, u2, u3, u4 = draw_u(t), draw_u(t), draw_u(2 * t), draw_u(t)
        transpose = [list(col) for col in zip(*sigma.values)]
        cases = [
            (f"coboundary {t}:{u1}", twist(sigma, t, u1)),
            (f"coboundary {t}:{u2}", twist(sigma, t, u2)),
            (f"read in mu_{2 * t}", twist(sigma, 2 * t, zero)),
            (f"read in mu_{2 * t}, coboundary {2 * t}:{u3}", twist(sigma, 2 * t, u3)),
            ("trivial", trivial_cocycle(sub, t)),
            (f"trivial, coboundary {t}:{u4}", twist(trivial_cocycle(sub, t), t, u4)),
            ("transposed", validate_cocycle(sub, t, transpose)),
            *((f"power {k}", twist(sigma, t, zero, k)) for k in range(2, t)),
        ]
        for name, tau in cases:
            for arrow, (a, b) in (("~", (sigma, tau)), ("<~", (tau, sigma))):
                mu = cohomologous(a, b)
                got = "None" if mu is None else f"mu {mu.order}:{mu.exps}"
                lines.append(f"coh {label} sigma {arrow} {name} -> {got}")
    return lines


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


def test_an_equivalence_realizes_no_algebra_and_computes_no_degrees(monkeypatch):
    """equiv_elementary decides and checks each pair of the equiv lines on the
    presentations: neither realize nor _degrees is called, on any EQUIVALENT.
    flagiso.iso imports neither, so their one home, flagiso.algebras, is spied on."""
    calls = []
    for name in ("realize", "_degrees"):
        spy = lambda p, fn=getattr(flagiso.algebras, name), name=name: calls.append(name) or fn(p)
        monkeypatch.setattr(flagiso.algebras, name, spy)
    kinds = [equiv_elementary(p, q).kind for _, p, q in equiv_pairs(random.Random(SEED + 2))]
    golden = CORPUS.read_text().splitlines()
    want = sum(line.startswith("equiv elementary") and " -> EQUIVALENT " in line for line in golden)
    assert kinds.count(EQUIVALENT) == want == 31 and calls == []


if __name__ == "__main__":
    CORPUS.write_text(render())
    print(f"wrote {CORPUS}", file=sys.stderr)
