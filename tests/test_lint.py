"""Source rules for the library itself.

Runtime guarantees must hold under ``python -O``, which strips ``assert``
statements; the library therefore raises explicitly wherever it checks.
Imports sit at module level, where a reader sees a module's dependencies at
once; no library module needs a deferred import to break a cycle.  The
export lists must agree: every exported name exists, and the package exports
exactly what its library modules export (``io`` and ``cli`` stay namespaced).
Each fact is proved once: ``validate_cocycle`` checks only tables that come
from outside (the twisted loader and ``trivial_cocycle``); cocycles derived
from checked ones (``transport``, ``pauli``) are built without a re-check.
Support lookups have one owner: a ``Subgroup`` builds its member index and
its coset table, and every other module reads them instead of rebuilding.
The decision engine realizes algebras only to certify a YES.
Every library name the benchmark's tracer wraps must exist, so deleting one
fails here and not only in a benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import flagiso

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
    assert found == ["cocycles.trivial_cocycle", "io.division_from_obj"]


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
    # caller data is checked at one given shift; the search solves once per
    # conjugation map; pairs compare division parts at the identity shift
    assert references_by_function(iso, "shift_conjugate") == [
        "_shift_search",
        "_validate_witness_data",
    ]
    assert references_by_function(iso, "iso_division") == ["_shift_search", "iso_pairs"]


def test_decisions_realize_only_to_certify():
    # a YES is certified on both realized algebras; a NO reads its invariants
    # off the presentations' cells
    assert set(references_by_function(SRC / "iso.py", "realize")) == {
        "_checked_isomorphic",
        "equiv_elementary",
    }


def test_coset_tables_are_built_only_by_subgroup():
    found = [
        f"{path.stem}.{owner}"
        for path in sorted(SRC.glob("*.py"))
        for owner in references_by_function(path, "left_coset")
    ]
    assert found == ["groups.Subgroup"]


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
    union = {
        name
        for mod in MODULES
        if mod.__name__ not in ("flagiso.io", "flagiso.cli")
        for name in getattr(mod, "__all__", ())
    }
    assert len(MODULES) >= 10, "library modules not found"
    assert len(set(flagiso.__all__)) == len(flagiso.__all__), "duplicate package exports"
    assert sorted(set(flagiso.__all__) ^ union) == []


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
