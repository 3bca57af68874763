"""The pytest configuration itself: a failing test is reported, not an internal error."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SAMPLE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported(tmp_path):
    # On a failure Hypothesis imports libcst to write a patch, and libcst
    # imports the deprecated mypy_extensions.TypedDict.  Under the "error"
    # warning filter alone, that warning ended the whole run with an
    # INTERNALERROR (exit 3): no falsifying example and no later tests.
    sample = tmp_path / "test_sample.py"
    sample.write_text(textwrap.dedent(SAMPLE))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), str(sample)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
