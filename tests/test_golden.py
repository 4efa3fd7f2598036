"""The CLI's `iso --witness` output on every ordered pair of fixtures, against a golden.

For each ordered pair (A, B) of files in presentations/, the golden holds the
exit code, stdout, stderr and the witness file (if one was written) of
``main(["iso", A, B, "--witness", W])``, with the fixture directory and W
replaced by placeholders.  Pairs over two groups exit 2 and are kept too.

Regenerate the golden, after a change meant to alter this output, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from flagiso.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "presentations"
GOLDEN = Path(__file__).resolve().parent / "golden" / "iso_fixtures.txt"


def render_iso_fixtures(scratch: Path) -> str:
    """The golden text, computed in-process; witness files go under scratch."""
    names = sorted(path.name for path in FIXTURES.glob("*.json"))
    wpath = scratch / "witness.json"
    sections = []
    for a in names:
        for b in names:
            wpath.unlink(missing_ok=True)
            out, err = io.StringIO(), io.StringIO()
            argv = ["iso", str(FIXTURES / a), str(FIXTURES / b), "--witness", str(wpath)]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            witness = wpath.read_text() if wpath.exists() else "(none)\n"
            text = "".join(
                [
                    f"=== iso {a} {b}\n",
                    f"exit {code}\n",
                    "--- stdout\n",
                    out.getvalue(),
                    "--- stderr\n",
                    err.getvalue(),
                    "--- witness\n",
                    witness if witness.endswith("\n") else witness + "\n",
                ]
            )
            text = text.replace(str(wpath), "<WITNESS>").replace(str(FIXTURES), "<FIXTURES>")
            sections.append(text)
    return "".join(sections)


def test_iso_on_every_fixture_pair_matches_the_golden(tmp_path):
    assert len(list(FIXTURES.glob("*.json"))) >= 8, "fixtures not found"
    assert render_iso_fixtures(tmp_path) == GOLDEN.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(render_iso_fixtures(Path(scratch)))
    print(f"wrote {GOLDEN}", file=sys.stderr)
