"""The pytest settings report a failing property test as one failure.

``filterwarnings = ["error"]`` turns every warning into an error, and the
hypothesis report hook for a failing ``@given`` test can warn on its own
(``mypy_extensions.TypedDict`` is deprecated).  Raised there, the warning
ends the run with INTERNALERROR and no FAILED line names the test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert x != x
'''


def test_a_failing_given_test_is_reported_as_one_failure(tmp_path):
    (tmp_path / "test_one.py").write_text(_FAILING, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "test_one.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "1 failed" in output, output
    assert "INTERNALERROR" not in output, output
