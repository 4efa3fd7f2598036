"""The command line with no site-packages: ``python -S -m flagiso``.

flagiso has no runtime dependencies, so a child started with -S must still
run.  The Klein four-group fixture and a twisted Z2^6 presentation validate;
a hostile Z2^8 cocycle is refused with exit 2, naming the first triple where
the cocycle identity fails; and a bilinear Z2^8 cocycle and a seeded
coboundary twist of it are found ISOMORPHIC within 60 s.  This process writes
the files; each child has this tree's src/ alone on PYTHONPATH, and runs
under -O when the suite itself does.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

from conftest import z2_bilinear

from flagiso import Cocycle, GradedDivisionAlgebra, make_presentation, validate_cocycle
from flagiso.io import save_presentation

ROOT = Path(__file__).resolve().parent.parent


def run_bare(*args, timeout=120):
    """python -S -m flagiso args, -O repeated as the suite's own optimize level."""
    return subprocess.run(
        [sys.executable, "-S", *["-O"] * sys.flags.optimize, "-m", "flagiso", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def save(cocycle, blocks, path):
    """Save cocycle's division on the given blocks, every degree the identity."""
    identity = cocycle.support.group.identity
    p = make_presentation(GradedDivisionAlgebra(cocycle), blocks, [identity] * sum(blocks))
    save_presentation(p, str(path))
    return str(path)


def test_the_klein_fixture_validates():
    res = run_bare("validate", str(ROOT / "presentations" / "klein_pauli.json"))
    assert (res.returncode, res.stdout.splitlines()[:1]) == (0, ["OK"]), res.stderr


def test_a_twisted_z2_to_the_6_validates(tmp_path):
    sub, table = z2_bilinear(6)
    path = save(validate_cocycle(sub, 2, table), [2], tmp_path / "z2_6_twisted.json")
    res = run_bare("validate", path)
    assert (res.returncode, res.stdout.splitlines()[:1]) == (0, ["OK"]), res.stderr


def test_a_hostile_z2_to_the_8_cocycle_is_refused(tmp_path):
    """sigma(b, c) = t(c) for b outside N, the members whose top coordinate is
    0, and 0 on N: the identity first fails at member 128."""
    sub, _ = z2_bilinear(8)
    rng = random.Random(1)
    t = [0] + [rng.randrange(2) for _ in range(255)]
    values = tuple(tuple(0 if b < 128 else t[c] for c in sub.members) for b in sub.members)
    path = save(Cocycle(sub, 2, values), [1], tmp_path / "z2_8_hostile.json")
    res = run_bare("validate", path)
    assert res.returncode == 2, (res.stdout, res.stderr)
    assert res.stderr.startswith("validation error: cocycle identity fails at triple"), res.stderr


def test_two_cohomologous_z2_to_the_8_divisions_are_isomorphic_within_60_s(tmp_path):
    """The bilinear cocycle and its twist by the coboundary of a seeded random
    u with u(e) = 0."""
    sub, sigma = z2_bilinear(8)
    rng = random.Random(1)
    u = [0] + [rng.randrange(2) for _ in range(255)]
    mul = sub.mul_table
    tau = [[v + u[a] + u[b] - u[mul[a][b]] for b, v in enumerate(row)] for a, row in enumerate(sigma)]
    a, b = (
        save(validate_cocycle(sub, 2, values), [1], tmp_path / name)
        for values, name in ((sigma, "z2_8_bilinear.json"), (tau, "z2_8_twisted.json"))
    )
    res = run_bare("iso", a, b, timeout=60)
    assert (res.returncode, res.stdout.splitlines()[:1]) == (0, ["ISOMORPHIC"]), res.stderr
