"""Source rules for the library itself.

Runtime guarantees must hold under ``python -O``, which strips ``assert``
statements; the library therefore raises explicitly wherever it checks.
Imports sit at module level, where a reader sees a module's dependencies at
once; no library module needs a deferred import to break a cycle.  The
library has no runtime dependencies: every import is relative or names a
module of the standard library.  The
export lists must agree: every exported name exists, and the package exports
exactly what its library modules export (``io`` and ``cli`` stay namespaced),
each name declared by one module and bound to that module's object.
Each fact is proved once: ``validate_cocycle`` checks only tables that come
from outside (the twisted loader and ``trivial_cocycle``); cocycles derived
from checked ones (``transport``, ``pauli``) are built without a re-check.
Support lookups have one owner: a ``Subgroup`` builds its member index and
its coset table, and every other module reads them instead of rebuilding.
One greedy closure walk owns "the subgroup generated by S": Light's test,
generating sets, subgroup closure and homomorphism extension all use it.
One per-shift record owns each shift's decision in the isomorphism engine,
and one cached action owns the admissible shifts' action on cosets, which
``tables`` reads through the public ``canonical_form``.
One constructor derives every witness the library builds, and one function
its map, on first read; caller data is checked once, where it enters.
A cohomology solve reads U rhs, U the row transform its cached system
keeps, through one path; no operation log is kept to replay, and no
elimination is memoized anywhere else.  One rule, the corrector law, decides
every corrector, u = 0 across two root orders included.
The decision engine realizes no algebra and computes no degree array: the
one check of a witness map reads the two presentations, to decide and to
name the failures of a refused map alike.
BlockShape.cells is the one description of where a basis element sits: the
shared layout keeps no per-position copy of it.  An algebra's degrees are
computed in one place, algebras._degrees, from the presentation alone, over
those cells, as one array by basis position, which realize stores.  The
graded invariants are counted in one place, algebras._coset_profiles, off
the presentation's cosets without computing degrees: invariants and every
NO read them there.
The grading and witness checks read one shared array of generator products;
the walk over every nonzero product runs only to name a failed check's
failures.
Memos kept across calls key on structure (shapes, supports, divisions,
moduli), never on one query's presentation, algebra or cocycle.
Every library name the benchmark's tracer wraps must exist, so deleting one
fails here and not only in a benchmark run.
The tests' oracles for cohomology, a NO's invariant and a witness map call
none of the library code they check, so a change to that code is checked
against an answer it cannot change.
"""

import ast
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import flagiso
import flagiso.groups
import flagiso.iso

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flagiso"
MODULES = [
    importlib.import_module(f"flagiso.{path.stem}")
    for path in sorted(SRC.glob("*.py"))
    if not path.stem.startswith("_")
]


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")), "library sources not found"
    assert found == [], f"assert statements in the library: {found}"


def test_library_imports_at_module_level():
    found = sorted(
        {
            f"{path.name}:{inner.lineno}"
            for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node)
            if isinstance(inner, (ast.Import, ast.ImportFrom))
        }
    )
    assert sorted(SRC.glob("*.py")), "library sources not found"
    assert found == [], f"imports inside functions: {found}"


def test_library_imports_only_itself_and_the_standard_library():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert sorted(SRC.glob("*.py")), "library sources not found"
    assert found == [], f"imports from outside the standard library: {found}"


def unread_imports(path: Path) -> list[str]:
    """The names path imports and never reads, nor lists in its __all__; star
    imports and ``from __future__`` bind nothing to read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0]: node.lineno for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name: node.lineno for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__"
        for elt in ast.walk(node.value)
        if isinstance(elt, ast.Constant)
    }
    return [
        f"{path.parent.name}/{path.name}:{line} {name}"
        for name, line in bound.items()
        if name != "*" and name not in read | exported
    ]


def test_every_imported_name_is_read():
    paths = sorted([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert len(paths) >= 30, "sources not found"
    found = [entry for path in paths for entry in unread_imports(path)]
    assert found == [], f"imported and never read: {found}"


def test_validate_cocycle_is_called_only_on_outside_tables():
    found = sorted(
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None)) == "validate_cocycle"
    )
    # trivial_cocycle, transport and pauli build their tables by construction
    assert found == ["io.division_from_obj"]


def references_by_function(path: Path, name: str) -> list[str]:
    """The top-level definition (or ``<module>``) around each use of name."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        owner = getattr(node, "name", "<module>")
        found += [
            owner
            for ref in ast.walk(node)
            if getattr(ref, "id", None) == name or getattr(ref, "attr", None) == name
        ]
    return sorted(found)


def test_shifted_divisions_are_decided_only_in_the_shift_search():
    iso = SRC / "iso.py"
    # one per-shift generator owns every division decision, and the per-shift
    # records pair cosets on top of it; caller data is checked at one given shift
    assert references_by_function(iso, "shift_conjugate") == [
        "_shift_correctors",
        "_validate_witness_data",
    ]
    assert references_by_function(iso, "iso_division") == ["_shift_correctors"]
    assert sorted(set(references_by_function(iso, "coset_rep"))) == [
        "_class_profiles",
        "_coset_action",
        "_shift_outcomes",
    ]
    # one cached action maps the admissible shifts to coset permutations:
    # canonical_form, classify and enumerate_classes read it
    assert references_by_function(iso, "_shift_correctors") == ["_coset_action", "_shift_outcomes"]
    replaced = ("_shift_search", "_witness_at", "_checked_isomorphic")
    replaced += ("_least_form", "_admissible_shifts")
    assert [name for name in replaced if hasattr(flagiso.iso, name)] == []
    tables = ast.parse((SRC / "tables.py").read_text())
    assert [
        alias.name
        for node in ast.walk(tables)
        if isinstance(node, ast.ImportFrom) and node.module == "iso"
        for alias in node.names
        if alias.name.startswith("_")
    ] == []


def test_one_solve_path_reads_the_row_transform():
    # the diagonalization keeps its row transform U, not a log of operations:
    # cohomologous reads U rhs through _solve, once, on the system cached per
    # support and modulus, with no pivot-row fast path and no fallback
    assert flagiso.modlinalg._Diagonal._fields == ("u", "steps", "v")
    assert flagiso.cocycles._System._fields == ("diag", "pairs")
    gone = ("_replay", "_pivot_rows")
    assert [name for name in gone if hasattr(flagiso.modlinalg, name)] == []
    assert not hasattr(flagiso.cocycles, "_infeasible")
    cocycles = SRC / "cocycles.py"
    assert [name for name in gone if references_by_function(cocycles, name)] == []
    assert references_by_function(cocycles, "_solve") == ["cohomologous"]
    # one rule decides the corrector law for the solver, for u = 0 across two
    # root orders, and for callers' data
    assert set(references_by_function(cocycles, "_keeps_law")) == {"cohomologous", "is_corrector"}


def test_memos_are_keyed_on_structure_not_on_a_query():
    # an lru_cache kept across queries would let a benchmark that repeats its
    # pairs time the cache and not the engine: memos key on shapes, supports,
    # divisions and moduli, never on a presentation, an algebra or a cocycle
    per_query = re.compile(r"\b(FlagPresentation|GradedAlgebra|Cocycle)\b")
    cached, found = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            names = {getattr(d, "id", getattr(d, "attr", None)) for d in decorators}
            if not names & {"lru_cache", "cache"}:
                continue
            cached.append(f"{path.stem}.{node.name}")
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            found += [
                f"{path.stem}.{node.name}({arg.arg})"
                for arg in params
                if arg is not None
                and arg.annotation is not None
                and per_query.search(ast.unparse(arg.annotation))
            ]
    # one memo per structure: (shape, support), (support, modulus) and
    # division; an elimination is kept only in its corrector system
    assert sorted(cached) == [
        "algebras._layout",
        "cocycles._corrector_system",
        "iso._coset_action",
    ]
    assert not hasattr(flagiso.modlinalg._diagonalize, "cache_info")
    assert found == [], f"memos keyed on one query's data: {found}"
    folded = [("algebras", "_generator_walk"), ("cocycles", "_coboundary_rows"), ("cli", "_shown")]
    source = {mod: (SRC / f"{mod}.py").read_text() for mod, _ in folded}
    assert [f"{mod}.{name}" for mod, name in folded if f"def {name}(" in source[mod]] == []
    assert "law" not in flagiso.cocycles._System._fields


def test_one_constructor_builds_every_witness():
    # the engine, build_witness, invert_witness and compose_witness all derive
    # their witness through iso._witness; a loaded witness is rebuilt verbatim
    found = sorted(
        f"{path.stem}.{owner}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
        for owner in [getattr(node, "name", "<module>")]
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "IsoWitness"
    )
    assert found == ["io.witness_from_obj", "iso._witness"]
    assert not hasattr(flagiso.iso, "_derive_mapping")
    # and one place derives a map, on its first read, which checks it
    iso = SRC / "iso.py"
    assert references_by_function(iso, "_monomial_map") == ["_first_read"]
    assert references_by_function(iso, "_first_read") == ["IsoWitness", "verify_witness"]
    # only _witness makes a witness whose map is derived, by deleting the map it was
    # constructed with; the missing-attribute hook derives it, with no marker or descriptor
    deleting = [
        node.name
        for node in ast.parse(iso.read_text(), filename=str(iso)).body
        for stmt in ast.walk(node)
        if isinstance(stmt, ast.Delete)
        and any(getattr(target, "attr", None) == "images" for target in stmt.targets)
    ]
    assert deleting == ["_witness"]
    assert not any(hasattr(flagiso.iso, name) for name in ("_Derive", "_DERIVE", "_MapField"))
    # one rule for sigma and the correctors, for caller data and the engine's alike
    assert sorted(set(references_by_function(iso, "_data_failure"))) == [
        "_certified",
        "_validate_witness_data",
    ]
    # caller data is checked once, on entry; no output is checked again
    assert references_by_function(SRC / "iso.py", "_validate_witness_data") == [
        "build_witness",
        "compose_witness",
        "invert_witness",
    ]


def test_the_engine_realizes_no_algebra():
    # a YES is decided on the search's data, and the map check, deciding or
    # naming, reads the presentations; a NO reads its invariants off the
    # presentations' cells, and an equivalence is checked on the presentations
    iso = SRC / "iso.py"
    assert references_by_function(iso, "realize") == []
    assert references_by_function(iso, "_degrees") == []


def test_only_degrees_computes_the_cell_degrees():
    per_cell = [path.name for path in SRC.glob("*.py") if "_cell_degrees" in path.read_text()]
    assert per_cell == []
    algebras = SRC / "algebras.py"
    # the degree array is computed only to realize; the graded invariants are
    # counted once, off the coset configuration, for invariants, for a NO and
    # for the component dimensions of an equivalence check
    assert [path.name for path in SRC.glob("*.py") if "_cell_invariants" in path.read_text()] == []
    assert not hasattr(flagiso.algebras, "_count_invariants")
    fields = ("basis", "index", "at", "units", "generators", "walk")
    assert flagiso.algebras._Layout._fields == fields
    assert list(inspect.signature(flagiso.algebras._degrees).parameters) == ["p"]
    assert references_by_function(algebras, "_degrees") == ["realize"]
    assert set(references_by_function(algebras, "degrees")) == {"_coset_profiles", "_degrees"}
    assert "invariants" not in references_by_function(algebras, "degree")
    found = {
        f"{path.stem}.{owner}"
        for path in sorted(SRC.glob("*.py"))
        for owner in references_by_function(path, "_coset_profiles")
    }
    assert found == {"algebras.invariants", "iso._separating_invariant", "iso._equiv_report"}


def test_every_product_is_walked_only_to_report_a_failed_check():
    calls = [
        (f"{path.stem}.{node.name}", len(call.args) + len(call.keywords))
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.FunctionDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "nonzero_products"
    ]
    assert sorted(calls) == [("algebras.check_grading", 0)]
    # the map check walks every product itself, on the naming pass only
    walks = {
        f"{path.stem}.{owner}"
        for path in sorted(SRC.glob("*.py"))
        for owner in references_by_function(path, "_products")
    }
    assert walks == {"algebras.GradedAlgebra", "algebras._layout", "iso._map_report"}
    # and both checks read the shared generator products first
    assert references_by_function(SRC / "algebras.py", "generator_products") == ["check_grading"]
    assert set(references_by_function(SRC / "iso.py", "walk")) == {"_map_report"}
    assert list(inspect.signature(flagiso.GradedAlgebra.nonzero_products).parameters) == ["self"]


def test_coset_tables_are_built_only_by_subgroup():
    found = [
        f"{path.stem}.{owner}"
        for path in sorted(SRC.glob("*.py"))
        for owner in references_by_function(path, "left_coset")
    ]
    assert found == ["groups.Subgroup"]


def test_one_closure_walk_owns_generated_subgroups():
    found = [
        f"{path.stem}.{owner}"
        for path in sorted(SRC.glob("*.py"))
        for owner in references_by_function(path, "_closure")
    ]
    # Subgroup walks twice: once to decide closure, once for its generators;
    # a failing cocycle's scan skips the subgroup its passing leads generate
    assert found == [
        "cocycles._raise_first_failing_triple",
        "groups.Subgroup",
        "groups.Subgroup",
        "groups._check_table",
        "groups.find_isomorphisms",
        "groups.subgroup_closure",
    ]
    replaced = ("_right_generators", "_generators", "_close_homomorphism")
    assert [name for name in replaced if hasattr(flagiso.groups, name)] == []


def test_support_positions_come_from_the_member_index():
    found = sorted(
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "index"
        and getattr(node.func.value, "attr", getattr(node.func.value, "id", None)) == "members"
    )
    assert sorted(SRC.glob("*.py")), "library sources not found"
    assert found == [], f"members.index calls in the library: {found}"


def test_every_exported_name_resolves():
    missing = [
        f"{mod.__name__}.{name}"
        for mod in [flagiso, *MODULES]
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []


def test_package_exports_the_union_of_module_exports():
    owners: dict[str, list] = {}
    for mod in MODULES:
        if mod.__name__ not in ("flagiso.io", "flagiso.cli"):
            for name in getattr(mod, "__all__", ()):
                owners.setdefault(name, []).append(mod)
    assert len(MODULES) >= 10, "library modules not found"
    assert len(set(flagiso.__all__)) == len(flagiso.__all__), "duplicate package exports"
    assert sorted(set(flagiso.__all__) ^ set(owners)) == []
    # under star imports a name that two modules export would silently
    # resolve to whichever of them the package imports last
    shared = {name: [m.__name__ for m in mods] for name, mods in owners.items() if len(mods) > 1}
    assert shared == {}
    stray = [name for name in owners if getattr(flagiso, name) is not getattr(owners[name][0], name)]
    assert stray == []


def test_benchmark_traced_names_resolve():
    # the tracer imports only the standard library, so it loads by path
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.TRACED) >= 20, "traced names not found"
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracer.TRACED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []



def test_the_oracles_run_none_of_the_code_they_check():
    # an oracle that calls the solver or the profile count it checks would pass
    # a change to that code by construction: conftest's oracles for a corrector,
    # a NO's invariant and a witness map reference none of the library code
    # that answers those questions, and conftest imports none of it
    oracles = (
        "corrector_by_brute",
        "cohomologous_by_elimination",
        "solve_congruences_by_elimination",
        "coboundary_rows",
        "eager_invariant_mismatch",
        "invariants_by_cell",
        "cell_degrees",
        "separate_by_invariants",
        "derive_mapping_by_basis",
    )
    checked = {
        "cohomologous",
        "solve_congruences",
        "_solve",
        "_diagonalize",
        "_corrector_system",
        "_coset_profiles",
        "_separating_invariant",
        "invariants",
        "_monomial_map",
        "_witness",
    }
    conftest = ROOT / "tests" / "conftest.py"
    tree = ast.parse(conftest.read_text(), filename=str(conftest))
    defined = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert [name for name in oracles if name not in defined] == []
    found = sorted(
        f"{name}: {ref}"
        for name in oracles
        for node in ast.walk(defined[name])
        for ref in (getattr(node, "id", None), getattr(node, "attr", None))
        if ref in checked
    )
    assert found == [], f"oracles that run the code they check: {found}"
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name in checked or "flagiso.modlinalg" in (alias.name, getattr(node, "module", None))
    ]
    assert imported == [], f"conftest imports the code its oracles check: {imported}"
