"""No command prints a non-finite number.

``json.dumps`` writes a non-finite float as ``Infinity`` or ``NaN``,
which no strict JSON reader accepts, and ``csv`` writes it as ``inf``
or ``nan``.  Every command runs here, in order, on the golden inputs
and on inputs that once made ``metrics`` and ``fit-arrival`` print
``Infinity``.  Each JSON stdout and each JSON file a command writes must
parse with a reader that refuses those constants, and no CSV cell may
read as a non-finite number.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from pathlib import Path

import pytest

from defectlab.cli import run
from test_golden import CASES as GOLDEN_CASES
from test_golden import INPUTS

#: Inputs beyond the golden ones, by file name.
EXTRA_INPUTS = {
    "one_defect.csv": (
        "id,product_id,phase_injected,phase_found,found_at,fixed_at,severity,status,fix_changes\n"
        "d1,m1,build,test,2004-03-01T00:00:00Z,2004-03-02T00:00:00Z,2,fixed,1\n"
    ),
    # One defect over this size is beyond float range.
    "subnormal_kloc.json": '[{"product_id":"m1","unique_formulas":100,"kloc":1e-310}]',
    # The first gap is infinite, and the second is zero but passes as equal to it.
    "infinite_spacing.csv": "bucket_start,count\n-1e308,1\n1e308,2\n1e308,3\n",
    # A finite spacing whose product with the fitted sigma is not.
    "overflowing_spacing.csv": "bucket_start,count\n0,1\n8e307,2\n1.6e308,3\n",
}

#: Commands in running order, each with the files it writes.
CASES = GOLDEN_CASES | {
    "forecast monte carlo": (
        ["forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.75",
         "--monte-carlo", "--trials", "200", "--seed", "1"],
        [],
    ),
    "ingest subnormal kloc": (
        ["ingest", "--defects", "one_defect.csv", "--products", "subnormal_kloc.json",
         "--out", "subnormal.json"],
        ["subnormal.json"],
    ),
    "metrics subnormal kloc json": (["metrics", "--ledger", "subnormal.json"], []),
    "metrics subnormal kloc csv": (["metrics", "--ledger", "subnormal.json", "--format", "csv"],
                                   []),
    "fit-arrival infinite spacing": (["fit-arrival", "--series", "infinite_spacing.csv"], []),
    "fit-arrival overflowing spacing": (
        ["fit-arrival", "--series", "overflowing_spacing.csv", "--out", "overflowing.json"],
        ["overflowing.json"],
    ),
}


def _refuse(constant: str):
    raise ValueError(f"non-finite number {constant}")


def _check_json(text: str) -> None:
    json.loads(text, parse_constant=_refuse)


def _check_csv(text: str) -> None:
    for cell in text.replace("\n", ",").split(","):
        with contextlib.suppress(ValueError):
            assert math.isfinite(float(cell)), f"non-finite cell {cell!r}"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, tuple[str, dict[str, str]]]:
    """Stdout and the written files of every case, run in order."""
    workdir = tmp_path_factory.mktemp("strict")
    for source in INPUTS.iterdir():
        shutil.copy(source, workdir / source.name)
    for name, text in EXTRA_INPUTS.items():
        (workdir / name).write_text(text, encoding="utf-8")
    results = {}
    before = os.getcwd()
    os.chdir(workdir)
    try:
        for name, (argv, written) in CASES.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                run(argv)
            files = {path: Path(path).read_text(encoding="utf-8")
                     for path in written if Path(path).exists()}
            results[name] = out.getvalue(), files
    finally:
        os.chdir(before)
    return results


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_hold_only_finite_numbers(outputs, case):
    stdout, files = outputs[case]
    argv = CASES[case][0]
    if "csv" in argv:
        _check_csv(stdout)
    elif stdout:
        _check_json(stdout)
    for path, text in files.items():
        if path.endswith(".json"):
            _check_json(text)
