"""No test, script or module imports a package outside the declared
dependencies.  scipy and mpmath are common on development machines but are
not dependencies, so an import of them would pass locally and fail to
collect anywhere else."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
UNDECLARED = ("scipy", "mpmath")
_NAMES = "|".join(UNDECLARED)
_IMPORT = re.compile(rf"\s*(?:from\s+(?:{_NAMES})\b|import\s+(?:[\w.]+\s*,\s*)*(?:{_NAMES})\b)")


@pytest.mark.parametrize("tree", ["src", "tests", "scripts"])
def test_no_undeclared_imports(tree):
    hits = []
    for path in sorted((ROOT / tree).rglob("*.py")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if _IMPORT.match(line):
                hits.append(f"{path.relative_to(ROOT)}:{lineno}")
    assert not hits, hits


@pytest.mark.parametrize("line", ["import scipy", "from mpmath import mp",
                                  "    import numpy, scipy.special as sp",
                                  "from scipy.linalg import solve_toeplitz"])
def test_the_scan_sees_every_import_form(line):
    assert _IMPORT.match(line)


@pytest.mark.parametrize("line", ["import numpy", "# scipy would do this faster",
                                  "from longpred import special"])
def test_the_scan_ignores_other_lines(line):
    assert not _IMPORT.match(line)
