"""Source rules for the library itself.

Runtime guarantees must hold under ``python -O``, which strips ``assert``
statements; the library therefore raises explicitly wherever it checks.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flagiso"


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")), "library sources not found"
    assert found == [], f"assert statements in the library: {found}"
