"""Acceptance gate: nine end-to-end checks, one verdict line each.

Every check here treats the library as a black box and measures it against an
independent source of truth: a dimension formula, a transformation that is
isomorphic by construction, exhaustive enumeration, brute-force search, or the
command line run as a subprocess.  The per-criterion PASS/FAIL lines are
printed after the run by the conftest summary hook.
"""

import itertools
import json
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

from conftest import (
    ACCEPTANCE_LINES,
    all_cocycles_by_brute,
    corrector_by_brute,
    count_classes_pairwise,
    is_corrector_by_pairs,
    make_sym,
    product,
)

from flagiso import (
    EQUIVALENT,
    INCONCLUSIVE,
    ISOMORPHIC,
    NOT_EQUIVALENT,
    BasisElem,
    GradedDivisionAlgebra,
    Subgroup,
    build_abelian,
    cohomologous,
    compose_witness,
    enumerate_classes,
    equiv_check,
    equiv_division,
    equiv_elementary,
    find_isomorphisms,
    invariants,
    invert_witness,
    iso_algebras,
    iso_division,
    make_presentation,
    pauli,
    realize,
    shift_conjugate,
    subgroup_closure,
    transport,
    trivial_division,
    validate_cocycle,
    verify_equiv_witness,
    verify_witness,
)
from flagiso.algebras import check_grading

FIXTURES = Path(__file__).resolve().parent.parent / "presentations"


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"criterion {num} FAIL: {name}")
        raise
    ACCEPTANCE_LINES.append(f"criterion {num} PASS: {name}")


# -- randomized inputs -------------------------------------------------------------

_PAULI_PAIRS = {
    (2, 2): ("(1,0)", "(0,1)"),
    (2, 4): ("(1,0)", "(0,2)"),
    (2, 2, 2): ("(1,0,0)", "(0,1,0)"),
}


def group_pool():
    pool = []
    for factors in ([2], [3], [4], [5], [6], [7], [8], [2, 2], [2, 4], [2, 2, 2]):
        pool.append((build_abelian(factors), _PAULI_PAIRS.get(tuple(factors))))
    s3, _, _ = make_sym(3)
    pool.append((s3, None))
    return pool


def coboundary_twist(rng, div):
    """A division algebra with the same support and a cohomologous cocycle."""
    m = div.order
    if m == 1:
        return div
    sub, grp = div.support, div.group
    u = {h: rng.randrange(m) for h in sub.members}
    u[grp.identity] = 0
    vals = [
        [
            (div.cocycle.val(x, y) + u[x] + u[y] - u[grp.mul(x, y)]) % m
            for y in sub.members
        ]
        for x in sub.members
    ]
    return GradedDivisionAlgebra(validate_cocycle(sub, m, vals))


def carry_division(rng, grp, a, m):
    """Twisted division on the cyclic subgroup <a>: exponent-sum carries."""
    sub = subgroup_closure(grp, [a])
    d = len(sub.members)
    pow_of, cur = {}, grp.identity
    for k in range(d):
        pow_of[cur] = k
        cur = grp.mul(cur, a)
    q = rng.randrange(m)
    vals = [
        [q * ((pow_of[x] + pow_of[y]) // d) % m for y in sub.members]
        for x in sub.members
    ]
    return GradedDivisionAlgebra(validate_cocycle(sub, m, vals))


def random_division(rng, grp, pauli_pair):
    roll = rng.random()
    if roll < 0.3:
        return trivial_division(grp)
    if pauli_pair is not None and roll < 0.55:
        return pauli(2, grp, list(pauli_pair))
    div = carry_division(rng, grp, rng.randrange(grp.size), rng.choice((1, 2, 3, 4)))
    return coboundary_twist(rng, div)


def random_blocks(rng):
    n = rng.randint(1, 5)
    cuts = sorted(rng.sample(range(1, n), k=rng.randint(0, n - 1)))
    edges = [0, *cuts, n]
    return [edges[i + 1] - edges[i] for i in range(len(edges) - 1)]


def random_presentation(rng, pool):
    grp, pauli_pair = pool[rng.randrange(len(pool))]
    div = random_division(rng, grp, pauli_pair)
    blocks = random_blocks(rng)
    degrees = [rng.randrange(grp.size) for _ in range(sum(blocks))]
    return make_presentation(div, blocks, degrees)


def isomorphic_rewrite(rng, p):
    """Shift, in-block shuffle, per-entry coset moves, cohomologous cocycle."""
    grp = p.group
    members = p.division.support.members
    g = rng.randrange(grp.size)
    out = []
    for blk in p.shape.block_positions():
        entries = [p.degrees[i] for i in blk]
        rng.shuffle(entries)
        out.extend(grp.mul(grp.mul(d, rng.choice(members)), g) for d in entries)
    div2 = coboundary_twist(rng, shift_conjugate(p.division, g))
    return make_presentation(div2, p.shape.blocks, out)


# -- 1: the grading law and the dimension identity -----------------------------------


def test_criterion_1_grading_and_dimension():
    rng = random.Random(1101)
    pool = group_pool()
    with criterion(1, "grading law and dimension identity on 200 random algebras"):
        for _ in range(200):
            p = random_presentation(rng, pool)
            alg = realize(p)
            report = check_grading(alg)
            assert report.violations == ()
            assert report.checked_products > 0 or alg.dim == len(
                p.division.support.members
            )
            blocks = p.shape.blocks
            s = len(blocks)
            expected = len(p.division.support.members) * sum(
                blocks[k] * blocks[l] for k in range(s) for l in range(k, s)
            )
            assert alg.dim == expected
            assert sum(d for _, d in invariants(alg).dims) == expected
            units = [BasisElem(i, i, p.group.identity) for i in range(p.shape.n)]
            for b in alg.basis:  # the unit, the sum of the (i,i,e), fixes every b
                left = [r for u in units if (r := product(alg, u, b)) is not None]
                right = [r for u in units if (r := product(alg, b, u)) is not None]
                assert left == right == [(0, b)]


# -- 2: transformed pairs must come back isomorphic with a checkable witness ---------


def test_criterion_2_soundness_on_transformed_pairs():
    rng = random.Random(1202)
    pool = group_pool()
    with criterion(2, "500 transformed pairs all isomorphic with verified witnesses"):
        failures = 0
        for _ in range(500):
            p = random_presentation(rng, pool)
            q = isomorphic_rewrite(rng, p)
            verdict = iso_algebras(p, q)
            assert verdict.kind == ISOMORPHIC, (
                p.degree_names(),
                q.degree_names(),
                verdict.kind,
            )
            a, b = realize(p), realize(q)
            report = verify_witness(a, b, verdict.witness)
            if not (report.ok and report.checked_pairs == a.dim * a.dim):
                failures += 1
        assert failures == 0


# -- 3: verdicts never contradict invariants (exhaustive, small) ----------------------


def elementary_cases():
    for factors in ([2], [3], [4], [2, 2]):
        grp = build_abelian(factors)
        for blocks in ((1, 1), (2,)):
            yield grp, blocks


def test_criterion_3_isomorphic_pairs_share_invariants():
    with criterion(3, "exhaustive: isomorphic pairs always share invariants"):
        nonvacuous = 0
        for grp, blocks in elementary_cases():
            div = trivial_division(grp)
            n = sum(blocks)
            tuples = list(itertools.product(range(grp.size), repeat=n))
            pres = [make_presentation(div, blocks, t) for t in tuples]
            invs = [invariants(realize(p)) for p in pres]
            for i, j in itertools.combinations(range(len(pres)), 2):
                if iso_algebras(pres[i], pres[j]).kind == ISOMORPHIC:
                    assert invs[i] == invs[j]
                    nonvacuous += 1
        assert nonvacuous > 0


# -- 4: the relation behaves like one: symmetry and transitivity ----------------------


def test_criterion_4_symmetry_and_transitivity():
    rng = random.Random(404)
    cases = list(elementary_cases())
    with criterion(4, "symmetry and transitivity via witness inversion/composition"):
        sym_checked = trans_checked = 0
        for _ in range(100):
            grp, blocks = cases[rng.randrange(len(cases))]
            div = trivial_division(grp)
            n = sum(blocks)

            def rand_pres():
                return make_presentation(
                    div, blocks, [rng.randrange(grp.size) for _ in range(n)]
                )

            p = rand_pres()
            q = isomorphic_rewrite(rng, p) if rng.random() < 0.6 else rand_pres()
            r = isomorphic_rewrite(rng, q) if rng.random() < 0.6 else rand_pres()

            vpq, vqp = iso_algebras(p, q), iso_algebras(q, p)
            assert vpq.kind == vqp.kind
            if vpq.kind == ISOMORPHIC:
                inv = invert_witness(vpq.witness)
                assert verify_witness(realize(q), realize(p), inv).ok
                sym_checked += 1

            vqr = iso_algebras(q, r)
            if vpq.kind == ISOMORPHIC and vqr.kind == ISOMORPHIC:
                vpr = iso_algebras(p, r)
                assert vpr.kind == ISOMORPHIC
                comp = compose_witness(vpq.witness, vqr.witness)
                assert verify_witness(realize(p), realize(r), comp).ok
                trans_checked += 1
        assert sym_checked >= 20 and trans_checked >= 10


# -- 5: classification tables against the pairwise engine ----------------------------


def test_criterion_5_classification_goldens():
    z2, z3 = build_abelian([2]), build_abelian([3])
    with criterion(5, "class counts match goldens and the union-find cross-check"):
        golden = [
            (z2, (1, 1), 2),
            (z3, (1, 1), 3),
            (z2, (2,), 2),
        ]
        for grp, blocks, expected in golden:
            div = trivial_division(grp)
            table = enumerate_classes(grp, blocks, div)
            assert table.count == expected
            assert table.pairwise_checked and table.membership_checked
            assert count_classes_pairwise(grp, blocks, div) == expected
        # beyond the goldens: the same agreement on every enumerated small case
        for grp, blocks in elementary_cases():
            div = trivial_division(grp)
            table = enumerate_classes(grp, blocks, div)
            assert table.count == count_classes_pairwise(grp, blocks, div)


# -- 6: the clock-and-shift division algebra ------------------------------------------


def test_criterion_6_division_algebra_facts():
    grp = build_abelian([2, 2])
    d = pauli(2, grp, ["(1,0)", "(0,1)"])
    full = Subgroup(grp, tuple(range(grp.size)))
    flat = GradedDivisionAlgebra(
        validate_cocycle(full, 2, [[0] * grp.size for _ in range(grp.size)])
    )
    with criterion(6, "clock-and-shift: fine division grading, no reduction to trivial"):
        alg = realize(make_presentation(d, [1], [grp.identity]))
        assert alg.dim == 4
        assert dict(invariants(alg).dims)[grp.identity] == 1
        assert alg.degree.count(grp.identity) == 1  # dim A_e = 1: a division grading

        # oracle first: no corrector among all 2^3 normalized candidates
        assert corrector_by_brute(d.cocycle, flat.cocycle) is None
        assert iso_division(d, flat) is None

        autos = find_isomorphisms(grp, grp)
        assert len(autos) == 6
        for alpha in autos:
            moved = transport(d.cocycle, alpha, full)
            assert corrector_by_brute(moved, flat.cocycle) is None
        assert equiv_division(d, flat) is None


# -- 7: equivalence decisions ----------------------------------------------------------


def test_criterion_7_equivalence_decisions():
    z2, z4 = build_abelian([2]), build_abelian([4])
    p2 = make_presentation(trivial_division(z2), [1, 1], [0, 1])
    p4 = make_presentation(trivial_division(z4), [1, 1], [0, 1])
    with criterion(7, "equivalence: positive with verified map, necessary-only honored"):
        verdict = equiv_elementary(p2, p4)
        assert verdict.kind == EQUIVALENT
        report = verify_equiv_witness(realize(p2), realize(p4), verdict.equiv_witness)
        assert report.ok

        lopsided = make_presentation(trivial_division(z4), [2], [0, 0])
        assert equiv_check(p2, lopsided).kind == NOT_EQUIVALENT

        assert equiv_check(p2, p4).kind == INCONCLUSIVE


# -- 8: the cocycle solver against brute force (exhaustive) ----------------------------


def test_criterion_8_cocycle_solver_vs_brute():
    z2 = build_abelian([2])
    supports = [
        Subgroup(z2, (z2.identity,)),
        Subgroup(z2, tuple(range(2))),
        Subgroup(build_abelian([3]), tuple(range(3))),
        Subgroup(build_abelian([4]), tuple(range(4))),
        Subgroup(build_abelian([2, 2]), tuple(range(4))),
    ]
    with criterion(8, "linear solver agrees with brute force on every cocycle pair"):
        pairs = 0
        positives = 0
        for sub in supports:
            cocycles = all_cocycles_by_brute(sub, 2)
            assert cocycles, "enumeration produced no cocycles"
            for s, t in itertools.product(cocycles, repeat=2):
                expected = corrector_by_brute(s, t) is not None
                mu = cohomologous(s, t)
                assert (mu is not None) == expected
                if mu is not None:
                    assert is_corrector_by_pairs(mu, s, t)
                    positives += 1
                pairs += 1
        assert pairs >= 100 and positives >= 10


# -- 9: the command line, run for real -------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "flagiso", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_criterion_9_cli_end_to_end(tmp_path):
    wpath = tmp_path / "w.json"
    with criterion(9, "command-line verdicts and witness round-trip"):
        res = run_cli(
            "iso",
            str(FIXTURES / "z2_ea.json"),
            str(FIXTURES / "z2_ae.json"),
            "--witness",
            str(wpath),
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[0] == "ISOMORPHIC"
        json.loads(wpath.read_text())  # well-formed on disk

        res = run_cli(
            "verify-witness",
            str(FIXTURES / "z2_ea.json"),
            str(FIXTURES / "z2_ae.json"),
            str(wpath),
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[0] == "WITNESS_VALID"

        res = run_cli("iso", str(FIXTURES / "z3_ea.json"), str(FIXTURES / "z3_eaa.json"))
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[0] == "NOT_ISOMORPHIC"

        res = run_cli(
            "equiv-elementary",
            str(FIXTURES / "z2_ea.json"),
            str(FIXTURES / "z4_eb.json"),
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[0] == "EQUIVALENT"
