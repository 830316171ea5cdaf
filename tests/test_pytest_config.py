"""The suite's pytest settings let a failing property test report itself."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_failing_property_prints_its_example(tmp_path):
    """Under the suite's warning filters a failing @given test ends in its
    falsifying example, not in an INTERNALERROR from the modules Hypothesis
    imports to report it."""
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    command = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider"]
    run = subprocess.run(
        command + ["test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
