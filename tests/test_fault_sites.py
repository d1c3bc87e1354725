"""The benchmark's planted faults still find their sites in the source.

Each fault in ``perfbench/tests/test_perfbench.py`` replaces one exact
text in one module of ``src/defectlab/``.  A refactor that moves or
rewrites that text leaves the fault with nothing to plant, which only
the slow benchmark suite would notice; this check reads the same table
and fails at once, as it does when the site is left where planting the
fault changes no code, such as in a comment.  The table is read with ``ast``, without importing
the benchmark.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "defectlab"
BENCH_TESTS = REPO / "perfbench" / "tests" / "test_perfbench.py"


def _faults() -> dict:
    tree = ast.parse(BENCH_TESTS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
            "FAULTS"
        ]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no FAULTS table in {BENCH_TESTS}")


FAULTS = _faults()


def test_the_table_is_not_empty():
    assert len(FAULTS) >= 10


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_site_occurs_exactly_once(fault):
    relative, old, _new, _keys = FAULTS[fault]
    text = (PACKAGE / relative).read_text(encoding="utf-8")
    assert text.count(old) == 1, f"{fault}: {old!r} is not found exactly once in {relative}"


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_planted_fault_changes_the_code(fault):
    # A site left only in a comment or a docstring would plant nothing.
    relative, old, new, _keys = FAULTS[fault]
    text = (PACKAGE / relative).read_text(encoding="utf-8")
    planted = text.replace(old, new)
    assert ast.dump(ast.parse(planted)) != ast.dump(ast.parse(text)), (
        f"{fault}: planting it in {relative} leaves the parsed code unchanged"
    )
