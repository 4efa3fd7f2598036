"""The CLI's stdout on fixtures and on corrupted witnesses, against goldens.

For each ordered pair (A, B) of files in presentations/, the iso golden holds
the exit code, stdout, stderr and the witness file (if one was written) of
``main(["iso", A, B, "--witness", W])``, with the fixture directory and W
replaced by placeholders.  Pairs over two groups exit 2 and are kept too.
The classify golden holds the exit code and the whole stdout (the human
table and the JSON lines) of ``main(["classify", ...])`` on a few instances:
abelian groups with trivial and Pauli divisions, and S3 from a group file.
The verify-witness golden holds ``verify-witness`` on the witness of every
isomorphic fixture pair, then on the klein_pauli pair's witness with one
field corrupted at a time; the fixture-commands golden holds ``validate``,
``dims`` and ``dims --radical`` on every fixture.

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
VERIFY_GOLDEN = GOLDEN.with_name("verify_witness.txt")
COMMANDS_GOLDEN = GOLDEN.with_name("fixture_commands.txt")

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


def run_section(header: str, argv: list[str], scratch: Path) -> str:
    """One golden section: the header, then main(argv)'s exit code, stdout and
    stderr, with the fixture and scratch directories replaced by placeholders."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = f"=== {header}\nexit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    return text.replace(str(scratch), "<SCRATCH>").replace(str(FIXTURES), "<FIXTURES>")


def set_to(path, value):
    """A corruption that sets the field of the witness document at path to value."""

    def corrupt(obj):
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return corrupt


def swap_to(a, b):
    """A corruption that swaps the images of map entries a and b."""

    def corrupt(obj):
        entries = obj["map"]
        entries[a]["to"], entries[b]["to"] = entries[b]["to"], entries[a]["to"]

    return corrupt


def bump_scalar(obj):
    entry = obj["map"][3]
    entry["scalar_exp"] = (entry["scalar_exp"] + 1) % 2


def drop_entry(obj):
    del obj["map"][1]


def copy_to(obj):
    obj["map"][1]["to"] = obj["map"][0]["to"]


# (label, corruption) of the klein_pauli -> klein_pauli_shifted witness, one
# per field; g, sigma, h and mu are provenance, which verify-witness does not read
WITNESS_CORRUPTIONS = [
    ("g", set_to(("g",), "(1,1)")),
    ("sigma", set_to(("sigma",), [2, 1])),
    ("h", set_to(("h",), ["(1,1)", "(0,1)"])),
    ("mu", set_to(("mu", "(1,0)"), 1)),
    ("root_order-3", set_to(("root_order",), 3)),
    ("root_order-4", set_to(("root_order",), 4)),
    ("map-from-outside-source-basis", set_to(("map", 1, "from"), [2, 1, "(0,0)"])),
    ("map-entry-missing", drop_entry),
    ("map-to-outside-target-basis", set_to(("map", 1, "to"), [2, 1, "(0,0)"])),
    ("map-to-repeated", copy_to),
    ("map-to-degree-swap", swap_to(0, 1)),
    ("map-to-zero-pattern-swap", swap_to(0, 6)),
    ("scalar_exp", bump_scalar),
]


def render_verify_witness(scratch: Path) -> str:
    """The verify-witness golden text, computed in-process."""
    names = sorted(path.name for path in FIXTURES.glob("*.json"))
    wpath = scratch / "witness.json"
    sections = []
    for a, b in [(a, b) for a in names for b in names]:
        wpath.unlink(missing_ok=True)
        fa, fb = str(FIXTURES / a), str(FIXTURES / b)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(["iso", fa, fb, "--witness", str(wpath)])
        if wpath.exists():
            argv = ["verify-witness", fa, fb, str(wpath)]
            sections.append(run_section(f"verify-witness {a} {b}", argv, scratch))
    a, b = "klein_pauli.json", "klein_pauli_shifted.json"
    fa, fb = str(FIXTURES / a), str(FIXTURES / b)
    with contextlib.redirect_stdout(io.StringIO()):
        main(["iso", fa, fb, "--witness", str(wpath)])
    good = json.loads(wpath.read_text())
    bad = scratch / "corrupted.json"
    for label, corrupt in WITNESS_CORRUPTIONS:
        obj = json.loads(json.dumps(good))
        corrupt(obj)
        bad.write_text(json.dumps(obj))
        argv = ["verify-witness", fa, fb, str(bad)]
        sections.append(run_section(f"verify-witness {a} {b} {label}", argv, scratch))
    return "".join(sections)


def render_fixture_commands(scratch: Path) -> str:
    """The validate and dims golden text, computed in-process."""
    sections = []
    for name in sorted(path.name for path in FIXTURES.glob("*.json")):
        for command in (["validate"], ["dims"], ["dims", "--radical"]):
            argv = [*command, str(FIXTURES / name)]
            sections.append(run_section(f"{' '.join(command)} {name}", argv, scratch))
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


def test_verify_witness_matches_the_golden(tmp_path):
    assert render_verify_witness(tmp_path) == VERIFY_GOLDEN.read_text()


def test_validate_and_dims_match_the_golden(tmp_path):
    assert render_fixture_commands(tmp_path) == COMMANDS_GOLDEN.read_text()


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
        VERIFY_GOLDEN.write_text(render_verify_witness(Path(scratch)))
        COMMANDS_GOLDEN.write_text(render_fixture_commands(Path(scratch)))
    written = ", ".join(map(str, (GOLDEN, CLASSIFY_GOLDEN, VERIFY_GOLDEN, COMMANDS_GOLDEN)))
    print(f"wrote {written}", file=sys.stderr)
