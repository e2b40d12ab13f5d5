"""The suite's own configuration: a failing test does not stop the session."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_A_TEST = textwrap.dedent("""
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(derandomize=True, database=None)
    @given(st.integers())
    def test_a_failing_property(n):
        assert n < 10


    def test_a_later_test():
        pass
""")


def test_a_failing_property_leaves_later_tests_running(tmp_path):
    # under filterwarnings = ["error"], the warnings Hypothesis raises
    # while it reports a failure must not end the session in INTERNALERROR
    path = tmp_path / "test_two.py"
    path.write_text(FAILING_PROPERTY_THEN_A_TEST)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(path)],
        text=True, capture_output=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout
    assert "1 failed, 1 passed" in done.stdout, done.stdout
    assert done.returncode == 1  # tests failed, not an internal error (3)
