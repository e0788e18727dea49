"""The test run's own configuration: under pyproject.toml's warning
filters, with the hypothesis plugin loaded, a failing property test is
reported as a failure and does not end the run in an INTERNALERROR."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_that_fails(x):
    assert x < 0
"""


def test_a_failing_given_test_is_reported(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "test_fails.py::test_property_that_fails" in out
    assert "INTERNALERROR" not in out
