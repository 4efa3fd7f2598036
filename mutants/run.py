"""Mutation checks for the checks that verdicts and witnesses rest on.

Each mutant is one named, exact replacement of source text, which must match
exactly once, and the tests expected to kill it.  A mutant whose text no
longer matches once is stale: the run fails until its entry follows the code.
The runner copies the tree to a temporary directory, checks that the
unmutated copy passes every listed test, then applies one mutant at a time
and runs its tests there with PYTHONPATH=src.  A mutant is killed when its
tests fail.  A mutant marked equivalent carries the reason no test can kill
it, and must survive.  Each mutant's line ends with the seconds its tests
took, and the run ends with its total wall time.

    python mutants/run.py               # every mutant
    python mutants/run.py NAME [NAME ...]

Exit status 0 when every mutant is killed and every equivalent one survives;
1 on a survivor, an equivalent mutant that was killed, a stale entry or an
unmutated copy that fails its tests.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "presentations", "pyproject.toml")
TIMEOUT_S = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root
    equivalent: str | None = None  # why no test can kill it


ISO = "src/flagiso/iso.py"
COCYCLES = "src/flagiso/cocycles.py"
GROUPS = "src/flagiso/groups.py"
MULTIPLICATIVE = "tests/test_properties.py::test_a_misrouting_off_the_generators_is_rejected"
GRADED = "tests/test_properties.py::test_a_multiplicative_map_that_moves_degrees_is_rejected"
SHAPES = "tests/test_properties.py::test_no_bijection_between_different_shapes_of_one_dimension_is_accepted"
ALL_PAIRS = "tests/test_properties.py::test_verify_witness_agrees_with_the_all_pairs_loop"
REFUSALS = "tests/test_iso.py"
OFF_BASIS = "tests/test_iso.py::test_verify_refuses_a_map_off_the_target_basis_or_not_injective"
ON_FIRST_READ = "tests/test_iso.py::test_a_wrong_engine_mu_answers_yes_and_raises_on_first_read"
CERTIFIED = "tests/test_iso.py::test_certified_refuses_data_outside_the_description"
ONCE = "tests/test_iso.py::test_verify_witness_checks_an_unread_map_once"
SUPPORTS = "tests/test_iso.py::test_no_bijection_over_supports_of_different_sizes_is_accepted"
AGREE = "tests/test_properties.py::test_the_deciding_and_the_naming_pass_agree"
COCYCLE_LEADS = "tests/test_cocycles.py::test_validate_rejects_a_failure_led_by_the_second_generator_only"
TABLE_LEADS = "tests/test_groups.py::test_validate_table_rejects_a_failure_led_by_the_second_generator_only"
ORDER_CAP = "tests/test_groups.py::test_group_order_cap_refuses_before_construction"
SEARCH_CAP = "tests/test_groups.py::test_isomorphism_search_budget"
BUDGET = "tests/test_classify.py::test_classify_budget_argument"
LAW = "tests/test_cocycles.py"
EQUIV = "tests/test_equiv.py::test_verify_equiv_"
ADMITTED = (
    "tests/test_properties.py::test_the_search_yields_every_shift_that_pairs",
    "tests/test_properties.py::test_a_yes_whose_least_admitted_shift_is_not_the_identity",
)

MUTANTS = (
    # iso._map_report, the one check of a witness map: its deciding pass decides every map
    # anyone reads, and its naming pass names the failures of a refused one
    Mutant(
        "decision-skips-shape",
        ISO,
        "    img_at = list(map(layout2.at.__getitem__, images))",
        "    img_at = list(map(layout.at.__getitem__, images))",
        (SHAPES,),
    ),
    Mutant(
        "decision-skips-support-size",
        ISO,
        "    tbl, size2 = grp.table, len(members2)",
        "    tbl, size2 = grp.table, len(sup.members)",
        (SUPPORTS,),
    ),
    Mutant(
        "decision-skips-malformed",
        ISO,
        "    if refused is not None:\n        return refused\n    images, exps, order",
        "    images, exps, order",
        (REFUSALS,),
    ),
    Mutant(
        "decision-skips-pi-injectivity",
        ISO,
        "    if len(set(rows)) != n or list(map(want.__getitem__, at)) != img_at:",
        "    if list(map(want.__getitem__, at)) != img_at:",
        (REFUSALS, SHAPES, SUPPORTS, MULTIPLICATIVE, GRADED, ALL_PAIRS, AGREE),
        equivalent=(
            "a bijection of bases that keeps the zero pattern and routing makes pi injective: "
            "each unit (j,j,e) is a right identity of a generator s with column j, so routing "
            "puts its image at the support identity of the cell (pi j, pi j), and two units "
            "sharing that cell would share a position; the naming pass checks every degree, "
            "and two units of degree e cannot share a cell, which holds one element of degree e"
        ),
    ),
    Mutant(
        "decision-skips-zero-pattern",
        ISO,
        "    if len(set(rows)) != n or list(map(want.__getitem__, at)) != img_at:",
        "    if len(set(rows)) != n:",
        (MULTIPLICATIVE, ALL_PAIRS),
    ),
    Mutant(
        "decision-skips-generator-degrees",
        ISO,
        "    for s in range(dim) if every else layout.generators:",
        "    for s in range(dim) if every else ():",
        (GRADED,),
    ),
    Mutant(
        "decision-skips-routing",
        ISO,
        "        if img_sup[pos] != mul2[u][v] or (lhs - rhs) % order:",
        "        if (lhs - rhs) % order:",
        (MULTIPLICATIVE,),
    ),
    Mutant(
        "decision-skips-scalars",
        ISO,
        "        if img_sup[pos] != mul2[u][v] or (lhs - rhs) % order:",
        "        if img_sup[pos] != mul2[u][v]:",
        ("tests/test_iso.py::test_verify_rejects_scalar_corruption",),
    ),
    Mutant(
        "decision-walks-every-product",
        ISO,
        "    walk = _products(shape, sup, range(dim)) if every else zip(*layout.walk)",
        "    walk = _products(shape, sup, range(dim))",
        ("tests/test_iso.py::test_a_valid_witness_checks_scalars_on_generator_products_only",),
    ),
    Mutant(
        "report-names-the-generator-pass",
        ISO,
        "    return report if report.ok else _map_report(p, p2, w, True)",
        "    return report",
        (ALL_PAIRS,),
    ),
    # iso._malformed, the bijection and scalar-order checks both passes share
    Mutant(
        "malformed-skips-length",
        ISO,
        "    if len(images) != dim or len(exps) != dim:\n"
        '        return WitnessReport(False, 0, ("map is not defined on exactly the source basis",))\n',
        "",
        ("tests/test_iso.py::test_verify_rejects_partial_map",),
    ),
    Mutant(
        "malformed-skips-dimensions",
        ISO,
        "    if dim != dim2:\n"
        '        return WitnessReport(False, 0, ("algebras have different dimensions",))\n',
        "",
        ("tests/test_iso.py::test_verify_rejects_algebras_of_different_dimensions",),
    ),
    Mutant(
        "malformed-skips-order-below-one",
        ISO,
        "    if order < 1 or order % m1 or order % m2:",
        "    if order % m1 or order % m2:",
        ("tests/test_iso.py::test_verify_refuses_scalar_orders_below_one",),
    ),
    Mutant(
        "malformed-skips-root-embedding",
        ISO,
        "    if order < 1 or order % m1 or order % m2:",
        "    if order < 1:",
        ("tests/test_iso.py::test_verify_rejects_non_embedding_scalar_order",),
    ),
    Mutant(
        "malformed-skips-basis-range",
        ISO,
        "    if set(map(type, images)) != {int} or min(images) < 0 or max(images) >= dim:",
        "    if False:",
        (OFF_BASIS,),
    ),
    Mutant(
        "malformed-skips-injectivity",
        ISO,
        "    if len(set(images)) != dim:\n"
        '        return WitnessReport(False, 0, ("map is not injective on basis elements",))\n',
        "",
        (OFF_BASIS,),
    ),
    # cocycles._keeps_law, the corrector law behind every mu
    Mutant(
        "law-always-holds",
        COCYCLES,
        "    sub = sigma.support\n    if u[sub.index[sub.group.identity]] % L:\n        return False\n",
        "    return True\n",
        (LAW,),
    ),
    Mutant(
        "law-skips-the-identity",
        COCYCLES,
        "    if u[sub.index[sub.group.identity]] % L:\n        return False\n",
        "",
        ("tests/test_cocycles.py::test_a_corrector_that_moves_the_identity_breaks_the_law",),
    ),
    Mutant(
        "law-skips-the-generator-pairs",
        COCYCLES,
        "            if (ua + ux - u[prod_a[x]] - ks * s[x] + kt * t[x]) % L:\n                return False\n",
        "            pass\n",
        (LAW,),
    ),
    # cocycles.validate_cocycle, whose triples led by the support's generators decide the law
    Mutant(
        "cocycle-skips-the-generator-triples",
        COCYCLES,
        "    if any(_failing_pair(tbl, prod, order, support.index[x]) for x in support.generators):",
        "    if False:",
        ("tests/test_cocycles.py::test_validate_rejects_broken_identity",),
    ),
    Mutant(
        "cocycle-checks-the-first-generator-only",
        COCYCLES,
        "    if any(_failing_pair(tbl, prod, order, support.index[x]) for x in support.generators):",
        "    if any(_failing_pair(tbl, prod, order, support.index[x]) for x in support.generators[:1]):",
        (COCYCLE_LEADS,),
    ),
    # groups._check_table, Light's associativity test on the generators of a table
    Mutant(
        "table-skips-lights-test",
        GROUPS,
        "            if a_sc(row_a) != row_as:",
        "            if False:",
        ("tests/test_groups.py::test_validate_table_rejects_non_associative",),
    ),
    Mutant(
        "table-checks-the-first-generator-only",
        GROUPS,
        "    for s in _closure(tbl, e, range(n))[0]:",
        "    for s in _closure(tbl, e, range(n))[0][:1]:",
        (TABLE_LEADS,),
    ),
    # the caps and budgets that keep every construction and search bounded
    Mutant(
        "group-order-cap-skipped",
        GROUPS,
        "    if size > GROUP_ORDER_CAP:",
        "    if False:",
        (ORDER_CAP,),
    ),
    Mutant(
        "group-order-cap-refuses-the-cap",
        GROUPS,
        "    if size > GROUP_ORDER_CAP:",
        "    if size >= GROUP_ORDER_CAP:",
        (ORDER_CAP,),
    ),
    Mutant(
        "search-cap-skipped",
        GROUPS,
        "    if len(elems1) > ISO_SEARCH_CAP or len(elems2) > ISO_SEARCH_CAP:",
        "    if False:",
        (SEARCH_CAP,),
    ),
    Mutant(
        "search-cap-reads-one-side",
        GROUPS,
        "    if len(elems1) > ISO_SEARCH_CAP or len(elems2) > ISO_SEARCH_CAP:",
        "    if len(elems1) > ISO_SEARCH_CAP:",
        (SEARCH_CAP,),
    ),
    Mutant(
        "search-cap-refuses-the-cap",
        GROUPS,
        "    if len(elems1) > ISO_SEARCH_CAP or len(elems2) > ISO_SEARCH_CAP:",
        "    if len(elems1) >= ISO_SEARCH_CAP or len(elems2) >= ISO_SEARCH_CAP:",
        (SEARCH_CAP,),
    ),
    Mutant(
        "classify-budget-skipped",
        ISO,
        "    if base**n > limit:",
        "    if False:",
        (BUDGET,),
    ),
    Mutant(
        "classify-budget-refuses-the-budget",
        ISO,
        "    if base**n > limit:",
        "    if base**n >= limit:",
        (BUDGET,),
    ),
    # iso._data_failure, the O(n) checks a YES is decided on, and caller data too
    Mutant(
        "data-skips-permutation",
        ISO,
        "        if set(map(type, sigma)) != {int} or sorted(sigma) != list(range(n)):\n"
        '            return "sigma is not a permutation"\n',
        "",
        (CERTIFIED,),
    ),
    Mutant(
        "data-skips-blocks",
        ISO,
        "        if any(max(sigma[end - m : end]) >= end for m, end in zip(blocks, ends)):",
        "        if False:",
        (CERTIFIED,),
    ),
    Mutant(
        "data-skips-corrector-in-support",
        ISO,
        "    if correctors is not None and (len(correctors) != n or not sup.keys() >= set(correctors)):",
        "    if False:",
        (
            CERTIFIED,
            "tests/test_io_cli.py::test_cli_witness_with_a_corrector_outside_the_support_exits_2",
        ),
    ),
    # iso._first_read, the check every derived map passes before it is kept
    Mutant(
        "first-read-skips-the-check",
        ISO,
        "    if not _map_report(p, p2, built, False).ok:",
        "    if False:",
        (ON_FIRST_READ,),
    ),
    # iso.verify_witness builds an unread map on its own walk only for the witness's own algebras
    Mutant(
        "verify-skips-the-endpoints",
        ISO,
        '    if w.__dict__["images"] is _DERIVE and (p, p2) == (w.source, w.target):',
        '    if w.__dict__["images"] is _DERIVE:',
        (ONCE,),
    ),
    # iso._equiv_report, the check of every equivalence witness, on the presentations
    Mutant(
        "equiv-skips-int-entries",
        ISO,
        "    if any(type(k) is not int for k in sigma) or sorted(sigma) != list(range(shape.n)):",
        "    if sorted(sigma) != list(range(shape.n)):",
        (EQUIV + "refuses_a_sigma_of_equal_positions_that_are_not_ints",),
    ),
    Mutant(
        "equiv-skips-permutation",
        ISO,
        "    if any(type(k) is not int for k in sigma) or sorted(sigma) != list(range(shape.n)):",
        "    if any(type(k) is not int for k in sigma):",
        (EQUIV + "rejects_non_permutation", EQUIV + "checks_sigma_against_the_source_positions"),
    ),
    Mutant(
        "equiv-skips-dimensions",
        ISO,
        "    if len(basis_of(p)) != len(basis_of(p2)):",
        "    if False:",
        (EQUIV + "rejects_dimension_mismatch",),
    ),
    Mutant(
        "equiv-skips-nontrivial-source",
        ISO,
        "    if not p.division.is_trivial():\n"
        '        return WitnessReport(False, 0, ("nontrivial division part in equivalence check",))',
        "    if False:\n"
        '        return WitnessReport(False, 0, ("nontrivial division part in equivalence check",))',
        (EQUIV + "refuses_a_nontrivial_source_support",),
    ),
    Mutant(
        "equiv-skips-leaving-images",
        ISO,
        "        if (sigma[i], sigma[j]) not in cells2:",
        "        if False:",
        (EQUIV + "rejects_cross_block_sigma",),
    ),
    Mutant(
        "equiv-skips-split",
        ISO,
        "        if img_degree.setdefault(u, w) != w:",
        "        if img_degree.setdefault(u, w) != w and False:",
        (EQUIV + "rejects_component_splitting_sigma",),
    ),
    Mutant(
        "equiv-names-a-split-per-cell",
        ISO,
        "        return WitnessReport(False, checked, tuple(dict.fromkeys(failures)))",
        "        return WitnessReport(False, checked, tuple(failures))",
        (EQUIV + "names_a_split_component_once",),
    ),
    Mutant(
        "equiv-skips-merge",
        ISO,
        '    if len(set(img_degree.values())) != len(img_degree):\n'
        '        failures.append("two components merge into one target degree")\n',
        "",
        (EQUIV + "rejects_merged_components",),
    ),
    Mutant(
        "equiv-skips-component-dimensions",
        ISO,
        "        if dims1[u] != dims2[w]:",
        "        if False:",
        (EQUIV + "rejects_merged_components",),
    ),
    Mutant(
        "equiv-skips-stated-map",
        ISO,
        "        if img_degree.get(u) != cm:",
        "        if False:",
        (EQUIV + "rejects_misstated_component_map",),
    ),
    Mutant(
        "equiv-skips-lambda",
        ISO,
        "            if ew.lam.get(g) != p2.degrees[k]:",
        "            if False:",
        (EQUIV + "refuses_a_relabeling_that_disagrees_with_sigma",),
    ),
    # iso.iso_algebras, the profile comparison that names a NO's separating invariant
    Mutant(
        "no-skips-the-profile-comparison",
        ISO,
        "        if dims1 != dims2:",
        "        if False:",
        ("tests/test_iso.py::test_chain_flags_over_z3_not_isomorphic",),
    ),
    Mutant(
        "no-separates-equal-profiles",
        ISO,
        "        if dims1 != dims2:",
        "        if True:",
        ("tests/test_iso.py::test_same_invariants_yet_not_isomorphic_gets_bare_exhaustion",),
    ),
    # iso._shift_outcomes, the block test that admits the shifts a search decides: a shift
    # it leaves out is never decided, so a YES it drops becomes a wrong NO
    Mutant(
        "admission-multiplies-on-the-right",
        ISO,
        "            {rep[tbl[inv(p2.degrees[i])][classes[0]]] for i in block}",
        "            {rep[tbl[classes[0]][inv(p2.degrees[i])]] for i in block}",
        ADMITTED,
    ),
    Mutant(
        "admission-reads-the-source-degrees",
        ISO,
        "            {rep[tbl[inv(p2.degrees[i])][classes[0]]] for i in block}",
        "            {rep[tbl[inv(p.degrees[i])][classes[0]]] for i in block}",
        ADMITTED,
    ),
    Mutant(
        "admission-drops-a-key",
        ISO,
        "        shifts = sorted([tbl[h][k] for k in map(inv, keys) for h in sup.members])",
        "        shifts = sorted([tbl[h][k] for k in map(inv, sorted(keys)[1:]) for h in sup.members])",
        ADMITTED,
    ),
)


def stale(mutants, root: Path = ROOT) -> list[str]:
    """The names of the mutants whose text does not match exactly once."""
    return [m.name for m in mutants if (root / m.path).read_text().count(m.old) != 1]


def passes(tree: Path, tests) -> bool:
    """Whether the tests pass in tree, run with PYTHONPATH=src."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
    return done.returncode == 0


def check(mutants, root: Path = ROOT, out=print) -> int:
    """Run every mutant on a temporary copy of root; the exit status."""
    bad = stale(mutants, root)
    for name in bad:
        out(f"STALE     {name}: its text does not match exactly once")
    needed = sorted({t for m in mutants for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = root / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
            elif src.exists():
                shutil.copy2(src, tree / name)
        if needed and not passes(tree, needed):
            out("BASELINE  the unmutated copy fails its tests: no mutant is checked")
            return 1
        failed = bool(bad)
        for m in mutants:
            if m.name in bad:
                continue
            path = tree / m.path
            text = path.read_text()
            path.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                killed = bool(m.tests) and not passes(tree, m.tests)
            finally:
                path.write_text(text)
            took = f"[{time.perf_counter() - start:.1f} s]"
            if m.equivalent is None:
                failed |= not killed
                out(f"{'killed' if killed else 'SURVIVED':<9} {m.name} {took}")
            else:
                failed |= killed
                out(
                    f"{'KILLED' if killed else 'survived':<9} {m.name} {took} "
                    f"(equivalent: {m.equivalent})"
                )
    return int(failed)


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}")
        return 1
    chosen = [m for m in MUTANTS if not names or m.name in names]
    start = time.perf_counter()
    status = check(chosen)
    print(f"{len(chosen)} mutants in {time.perf_counter() - start:.1f} s")
    return status


if __name__ == "__main__":
    sys.exit(main())
