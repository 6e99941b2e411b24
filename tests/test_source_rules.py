"""Rules on the package source: one owner for file I/O, one rule for duplicates,
one owner of row and column sums, one stored form of the Google matrix, one
registry lookup per distinct key, one convergence loop, two doors for trade flows,
no threads, no full-size operator.

``_io.py`` alone opens files and writes JSON. Duplicate flows are added only
by the ``MoneyMatrixSet`` gate's storage-order rule, never by scipy's
``sum_duplicates``, whose summation order is its own. A money matrix's rows and
columns are summed only by ``MoneyMatrixSet.imports`` and ``exports``, never by
a sparse axis sum, whose ``np.matrix`` result needs the ``np.asarray(x.sum(``
unwrapping that the rule looks for; dense numpy axis sums stay allowed. Only ``google_matrix.py``
names ``GoogleMatrix.stochastic``, the assembled S = S0 + v d^T kept for checks;
every other module works on the links and the dangling mask. No module calls
``effective_dense``, the dense N x N oracle that lives in the tests' ``conftest.py``.
Registry lookups go once per distinct key, never per row: the
``np.fromiter(map(`` idiom of one ``index_of`` call per flow is forbidden.
One solver: only ``google_matrix.py``, home of the per-product block LU of
I - damping * S0, names a sparse or dense LU factorization or solve.
One loop for every fixed point: only ``google_matrix.py``, home of ``_iterate``, and
``errors.py`` pass ``iterations=``, so a module with its own convergence loop fails.
Two doors for trade flows: ``trade_data._money_from_columns``, which sums the flows
of a key and builds the canonical matrices, is named only in ``ingest_csv``,
``merge_country_group`` and ``MoneyMatrixSet.__post_init__``, the gate's rebuild, so
in-memory flows come in as CSV text through ingest or as matrices through the gate.
One number rule: ``trade_data._number``, which every year and value field goes
through, owns the one ``.isascii(`` line, since ``int`` and ``float`` would take
non-ASCII digits.
No threads: no module names ``threading``, ``concurrent.futures`` or
``multiprocessing``. OpenBLAS splits its sums by whichever of its threads are
free, so two library calls on threads of their own, such as ``reduce``'s two
halves, give outputs whose bytes change from run to run.
No full-size operator: no module names ``aslinearoperator`` or ``LinearOperator``.
I - damping * S0 is block-diagonal by product, so ``reduce`` solves and multiplies one
product block at a time; an operator over the whole scattering block spent each
eigen step on a full-size sparse product and needed an S0_ss slice to build.
"""

import ast
import re
from pathlib import Path

import pytest

SOURCE = sorted((Path(__file__).resolve().parents[1] / "src" / "wtnrank").glob("*.py"))

RULES = [
    (re.compile(r"\bsum_duplicates\("), set()),
    (re.compile(r"\bnp\.asarray\([^()]*\.sum\("), set()),
    (re.compile(r"\bopen\("), {"_io.py"}),
    (re.compile(r"\bjson\.dump\("), {"_io.py"}),
    (re.compile(r"\.stochastic\b"), {"google_matrix.py"}),
    (re.compile(r"\beffective_dense\("), set()),
    (re.compile(r"\bnp\.fromiter\(\s*map\("), set()),
    (re.compile(r"\b(splu|spsolve|lu_factor|dgetrf)\b"), {"google_matrix.py"}),
    (re.compile(r"\biterations="), {"google_matrix.py", "errors.py"}),
    (re.compile(r"\b(threading|multiprocessing|concurrent\b.*\bfutures)\b"), set()),
    (re.compile(r"\b(aslinearoperator|LinearOperator)\b"), set()),
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


def test_one_owner_of_the_number_rule():
    hits = [(path, number) for path in SOURCE
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if re.search(r"\.isascii\(", line)]
    assert len(hits) == 1, hits
    path, number = hits[0]
    owners = [node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.FunctionDef) and node.lineno <= number <= node.end_lineno]
    assert (path.name, owners) == ("trade_data.py", ["_number"])


MONEY_BUILDERS = {("trade_data.py", name) for name in (
    "ingest_csv", "merge_country_group", "MoneyMatrixSet.__post_init__")}


def test_two_doors_for_trade_flows():
    def owners(node, scope):
        """The qualified name of the def around each use of ``_money_from_columns``."""
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Name) and node.id == "_money_from_columns"
                or isinstance(node, ast.Attribute) and node.attr == "_money_from_columns"):
            yield scope
        for child in ast.iter_child_nodes(node):
            yield from owners(child, scope)

    uses = {(path.name, owner) for path in SOURCE
            for owner in owners(ast.parse(path.read_text(encoding="utf-8")), "")}
    assert uses and uses <= MONEY_BUILDERS, uses - MONEY_BUILDERS
