"""Smoke tests of the mutation runner, on a tree of two files made here, and
of its entries, which must match the library's text and name their tests."""

import importlib.util
import re
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
spec = importlib.util.spec_from_file_location("mutants_run", HERE / "run.py")
run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)


@pytest.fixture
def tree(tmp_path):
    """A package whose check a test pins on one side only."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text("")
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        textwrap.dedent(
            """\
            def positive(x):
                return x > 0


            def double(x):
                return x + x
            """
        )
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        textwrap.dedent(
            """\
            from pkg.mod import double, positive


            def test_positive():
                assert not positive(0) and positive(1)


            def test_double():
                assert double(2) == 4
            """
        )
    )
    return tmp_path


def mutant(name, old, new, equivalent=None, path="src/pkg/mod.py"):
    return run.Mutant(name, path, old, new, ("tests/test_mod.py",), equivalent)


def outcome(mutants, root):
    """The run's status and its lines, each mutant's time taken out."""
    lines = []
    status = run.check(mutants, root, lines.append)
    return status, [TIME.sub("", line) for line in lines]


TIME = re.compile(r" \[\d+\.\d s\]")


def test_each_mutant_line_carries_its_time(tree):
    lines = []
    run.check([mutant("boundary", "x > 0", "x >= 0")], tree, lines.append)
    assert len(lines) == 1 and re.fullmatch(r"killed    boundary \[\d+\.\d s\]", lines[0])


def test_a_killed_mutant_passes_and_a_survivor_fails(tree):
    killed = mutant("boundary", "x > 0", "x >= 0")
    assert outcome([killed], tree) == (0, ["killed    boundary"])
    survivor = mutant("times-two", "x + x", "2 * x")
    status, lines = outcome([killed, survivor], tree)
    assert status == 1 and lines == ["killed    boundary", "SURVIVED  times-two"]
    assert (tree / "src" / "pkg" / "mod.py").read_text().count("x > 0") == 1  # the tree is untouched


def test_an_equivalent_mutant_must_survive_and_say_why(tree):
    same = mutant("times-two", "x + x", "2 * x", equivalent="the same integer")
    assert outcome([same], tree) == (0, ["survived  times-two (equivalent: the same integer)"])
    wrong = mutant("boundary", "x > 0", "x >= 0", equivalent="claimed, but a test tells them apart")
    assert outcome([wrong], tree)[0] == 1


def test_a_stale_entry_fails_the_run(tree):
    status, lines = outcome([mutant("gone", "x < 0", "x <= 0"), mutant("boundary", "x > 0", "x >= 0")], tree)
    assert status == 1
    assert lines == ["STALE     gone: its text does not match exactly once", "killed    boundary"]
    assert run.stale([mutant("twice", "x", "y")], tree) == ["twice"]


def test_a_failing_unmutated_tree_checks_nothing(tree):
    (tree / "tests" / "test_mod.py").write_text("def test_broken():\n    assert False\n")
    assert outcome([mutant("boundary", "x > 0", "x >= 0")], tree) == (
        1,
        ["BASELINE  the unmutated copy fails its tests: no mutant is checked"],
    )


def test_every_entry_matches_once_and_names_its_tests():
    names = [m.name for m in run.MUTANTS]
    assert len(names) == len(set(names)) >= 20
    assert run.stale(run.MUTANTS) == []
    for m in run.MUTANTS:
        assert m.tests, m.name
        assert all((run.ROOT / t.partition("::")[0]).is_file() for t in m.tests), m.name
        assert m.equivalent is None or len(m.equivalent) > 20, m.name
    assert run.main(["no-such-mutant"]) == 1
