"""Rules on the package source: one owner for file I/O, one rule for duplicates,
one stored form of the Google matrix.

``_io.py`` alone opens files and writes JSON. Duplicate flows are added only
by the ``MoneyMatrixSet`` gate's storage-order rule, never by scipy's
``sum_duplicates``, whose summation order is its own. Only ``google_matrix.py``
names ``GoogleMatrix.stochastic``, the assembled S = S0 + v d^T kept for checks,
and ``effective_dense``, the dense N x N oracle; every other module works on the
links and the dangling mask.
"""

import re
from pathlib import Path

import pytest

SOURCE = sorted((Path(__file__).resolve().parents[1] / "src" / "wtnrank").glob("*.py"))

RULES = [
    (re.compile(r"\bsum_duplicates\("), set()),
    (re.compile(r"\bopen\("), {"_io.py"}),
    (re.compile(r"\bjson\.dump\("), {"_io.py"}),
    (re.compile(r"\.stochastic\b"), {"google_matrix.py"}),
    (re.compile(r"\beffective_dense\("), {"google_matrix.py"}),
]


def test_source_files_found():
    assert "_io.py" in {path.name for path in SOURCE} and len(SOURCE) > 5


@pytest.mark.parametrize("path", SOURCE, ids=lambda path: path.name)
def test_source_rules(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    broken = [f"{path.name}:{number}: {line.strip()}"
              for pattern, allowed in RULES if path.name not in allowed
              for number, line in enumerate(lines, start=1) if pattern.search(line)]
    assert not broken, "\n".join(broken)
