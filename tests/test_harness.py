"""The Tier-1 command names a failing property test and runs the tests
after it.  ``pyproject.toml`` turns warnings into errors; the one it lets
through is the deprecation that hypothesis's pytest plugin raises while it
reports a failing example, which would otherwise end the run in an
INTERNALERROR."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_property_test_is_named_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "FAILED test_probe.py::test_fails" in output, output
    assert "1 failed, 1 passed" in output, output
