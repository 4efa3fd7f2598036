"""The CLI's `iso --witness` and `classify` output, against goldens.

For each ordered pair (A, B) of files in presentations/, the iso golden holds
the exit code, stdout, stderr and the witness file (if one was written) of
``main(["iso", A, B, "--witness", W])``, with the fixture directory and W
replaced by placeholders.  Pairs over two groups exit 2 and are kept too.
The classify golden holds the exit code and the whole stdout (the human
table and the JSON lines) of ``main(["classify", ...])`` on a few instances:
abelian groups with trivial and Pauli divisions, and S3 from a group file.

Regenerate the goldens, after a change meant to alter this output, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from conftest import make_sym

from flagiso import io as flagiso_io
from flagiso.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "presentations"
GOLDEN = Path(__file__).resolve().parent / "golden" / "iso_fixtures.txt"
CLASSIFY_GOLDEN = GOLDEN.with_name("classify.txt")

# (label, classify arguments); "<S3>" stands for a group file holding S3
CLASSIFY_CASES = [
    ("z6_1_2", ["--group", "abelian:6", "--blocks", "1,2"]),
    (
        "z2z2_1_1_pauli",
        ["--group", "abelian:2,2", "--blocks", "1,1", "--division", "pauli:2:(1,0),(0,1)"],
    ),
    ("z4_2_2_2", ["--group", "abelian:4", "--blocks", "2,2,2"]),
    ("s3_1_1_1", ["--group", "<S3>", "--blocks", "1,1,1"]),
]


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


def classify_argv(args: list[str], scratch: Path) -> list[str]:
    """The classify command line for args, with "<S3>" written out as a group file."""
    if "<S3>" not in args:
        return ["classify", *args]
    gpath = scratch / "s3.json"
    gpath.write_text(json.dumps({"v": 1, **flagiso_io.group_to_obj(make_sym(3)[0])}))
    return ["classify", *(str(gpath) if a == "<S3>" else a for a in args)]


def classify_section(label: str, args: list[str], code: int, stdout: str) -> str:
    return f"=== classify {label} {' '.join(args)}\nexit {code}\n{stdout}"


def render_classify(scratch: Path) -> str:
    """The classify golden text, computed in-process."""
    sections = []
    for label, args in CLASSIFY_CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(classify_argv(args, scratch))
        sections.append(classify_section(label, args, code, out.getvalue()))
    return "".join(sections)


def test_iso_on_every_fixture_pair_matches_the_golden(tmp_path):
    assert len(list(FIXTURES.glob("*.json"))) >= 8, "fixtures not found"
    assert render_iso_fixtures(tmp_path) == GOLDEN.read_text()


def test_classify_matches_the_golden(tmp_path):
    assert render_classify(tmp_path) == CLASSIFY_GOLDEN.read_text()


def test_classify_golden_holds_in_a_child_with_and_without_optimization(tmp_path):
    """Under python -O (asserts stripped) the classify output is the golden's too."""
    # the golden's sections, by label: each runs up to the next section's header
    golden = CLASSIFY_GOLDEN.read_text()
    sections = {
        section.split(" ", 1)[0]: "=== classify " + section
        for section in golden.split("=== classify ")[1:]
    }
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    for label, args in (CLASSIFY_CASES[1], CLASSIFY_CASES[3]):
        argv = classify_argv(args, tmp_path)
        outputs = []
        for flags in ([], ["-O"]):
            res = subprocess.run(
                [sys.executable, *flags, "-m", "flagiso", *argv],
                capture_output=True,
                text=True,
                timeout=120,
                env=env,
            )
            outputs.append(classify_section(label, args, res.returncode, res.stdout))
        normal, optimized = outputs
        assert normal == sections[label]
        assert optimized == normal


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(render_iso_fixtures(Path(scratch)))
        CLASSIFY_GOLDEN.write_text(render_classify(Path(scratch)))
    print(f"wrote {GOLDEN} and {CLASSIFY_GOLDEN}", file=sys.stderr)
