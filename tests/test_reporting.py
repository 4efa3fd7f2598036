"""The suite's own settings let a failing check report.

The repository's pytest configuration turns warnings into errors.  A failing
Hypothesis property must still report its falsifying example and count as
one failure (exit 1), not abort the session with an INTERNALERROR (exit 3):
reporting a failure imports modules whose dependencies may warn on import.
The property runs in a child pytest under this repository's configuration.
"""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_reports_its_falsifying_example(pytester):
    pytester.makepyfile(
        test_fails="""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_every_integer_is_negative(n):
            assert n < 0
        """
    )
    config = ["-c", str(PYPROJECT), "--rootdir", str(pytester.path), "-p", "no:cacheprovider"]
    result = pytester.runpytest_subprocess(*config, "test_fails.py", timeout=120)
    assert result.ret == 1, result.outlines
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    result.assert_outcomes(failed=1)
