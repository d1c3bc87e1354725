"""Golden outputs: every CLI command except the Monte Carlo reproduces
recorded bytes on committed inputs.

The inputs in ``tests/data/golden/`` are the output of
``python3 perfbench/gen.py --seed 1 --rows 200`` (``expect.json`` left
out).  Each command runs in-process through ``cli.run`` from a scratch
directory holding copies of them, with relative paths, because
``ingest``, ``report`` and ``fit-arrival --out`` echo their paths.  A
case records its exit code and the sha256 of its stdout, its stderr and
each file it writes.  A difference here is a change of output bytes:
either a regression, or a deliberate change that must be recorded anew
and named in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
from pathlib import Path

import pytest

from defectlab.cli import run

INPUTS = Path(__file__).parent / "data" / "golden"

#: Commands in running order, each with the files it writes.  The
#: ledger commands read the ledger that the first command writes.
CASES = {
    "ingest": (
        ["ingest", "--defects", "defects.csv", "--products", "products.json",
         "--out", "ledger.json"],
        ["ledger.json"],
    ),
    "ingest invalid": (
        ["ingest", "--defects", "defects_invalid.csv", "--products", "products.json",
         "--out", "ledger_invalid.json"],
        [],
    ),
    "metrics json": (["metrics", "--ledger", "ledger.json"], []),
    "metrics csv": (["metrics", "--ledger", "ledger.json", "--format", "csv"], []),
    "metrics p07 json": (["metrics", "--ledger", "ledger.json", "--product", "p07"], []),
    "metrics p07 csv": (
        ["metrics", "--ledger", "ledger.json", "--product", "p07", "--format", "csv"], [],
    ),
    "report": (["report", "--ledger", "ledger.json", "--svg", "report.svg"], ["report.svg"]),
    "report p07 daily": (
        ["report", "--ledger", "ledger.json", "--svg", "p07.svg", "--bucket-days", "1",
         "--product", "p07"],
        ["p07.svg"],
    ),
    "forecast": (["forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.75"], []),
    "forecast table json": (["forecast", "--units", "2000", "--table"], []),
    "forecast table csv": (["forecast", "--units", "2000", "--table", "--format", "csv"], []),
    "forecast table unpublished": (["forecast", "--units", "1000", "--table"], []),
    "estimate uf": (["estimate", "--uf", "2182"], []),
    "estimate fit": (["estimate", "--fit", "scatter.csv"], []),
    "estimate uf linear": (["estimate", "--uf", "2182", "--model", "linear"], []),
    "estimate uf sqrt": (["estimate", "--uf", "2182", "--model", "sqrt"], []),
    "estimate fit linear": (["estimate", "--fit", "scatter.csv", "--model", "linear"], []),
    "estimate fit sqrt": (["estimate", "--fit", "scatter.csv", "--model", "sqrt"], []),
    "fit-arrival": (["fit-arrival", "--series", "series.csv"], []),
    "fit-arrival out": (["fit-arrival", "--series", "series.csv", "--out", "fit.json"], ["fit.json"]),
}

#: The sha256 of no bytes.
EMPTY = hashlib.sha256(b"").hexdigest()

#: Recorded on the code before the removal of the unreached library
#: surface, whose CLI output it must not change.  The outputs of the
#: three fits (``report``, ``estimate --fit`` and ``fit-arrival``) were
#: recorded anew when the fits took exactly rounded sums, which give the
#: same bytes on every supported Python.  The four single-model
#: ``estimate`` cases were recorded before the model objects were built
#: from ``_asdict()``.  The ``forecast --units 1000 --table`` case, whose
#: cells have no published counterpart, was recorded before the published
#: table took the shape of the grid's rows, and the two ``metrics --product p07``
#: cases when they were added, from the code before that change.
EXPECTED: dict[str, dict] = {
    "ingest": {
        "exit": 0,
        "stdout": "69dd51c47c063abf234363d3f29aef432a099998699a918990b9ba642d35c2d5",
        "stderr": EMPTY,
        "files": {
            "ledger.json": "7173c6945eaae6c9a0551a61fdead5b61616394eeb955ac632486bbeebd3fd57",
        },
    },
    "ingest invalid": {
        "exit": 1,
        "stdout": EMPTY,
        "stderr": "03df2e06d9f28b79e52a13efd1a77aa9a8be13b0e3aa1c6d57b2526b8079bc8a",
        "files": {},
    },
    "metrics json": {
        "exit": 0,
        "stdout": "f84c11b67e554b5a5144a47f2610a299ca0738ad96e64673e2911ed644af258a",
        "stderr": EMPTY,
        "files": {},
    },
    "metrics csv": {
        "exit": 0,
        "stdout": "b9a0dd88365689d2fba1783bd31b304fc10a48e1ac15dbadc9b0399a1e45dd8f",
        "stderr": EMPTY,
        "files": {},
    },
    "metrics p07 json": {
        "exit": 0,
        "stdout": "fdd809e03aa0f7995c7e8fa590920e9970636412562d43ee094ca7be45707222",
        "stderr": EMPTY,
        "files": {},
    },
    "metrics p07 csv": {
        "exit": 0,
        "stdout": "d54b609c507bdea2c552b698683c45ebfbc3538704944ac032efa65e5f8cb868",
        "stderr": EMPTY,
        "files": {},
    },
    "report": {
        "exit": 0,
        "stdout": "f5ab82525127b3423f71c7727bc60089d277d6ff19d11ad5d6fadadff9207d54",
        "stderr": EMPTY,
        "files": {
            "report.svg": "4c5d27512ac542b145c853c44a8b6babe002ffdac731f3a0497d00693a8b5f2a",
        },
    },
    "report p07 daily": {
        "exit": 0,
        "stdout": "ae8d1c43231456fec3fe92ca5831e4bd82e8e9cffaff14cd392e56bc3c575ea7",
        "stderr": EMPTY,
        "files": {
            "p07.svg": "b9b45b9aa752d300cf1dfe3dd46e763d2e754eda793c86d1a50148fbaf0d8386",
        },
    },
    "forecast": {
        "exit": 0,
        "stdout": "c26b0f4d4dd697c2390b3a935b0bed838b91e26957a539780a5eb25f997e81c2",
        "stderr": EMPTY,
        "files": {},
    },
    "forecast table json": {
        "exit": 0,
        "stdout": "d61cfc75d28a6bf033057880df7985efbbcb9624b25c22ea39cc400617aacae1",
        "stderr": EMPTY,
        "files": {},
    },
    "forecast table csv": {
        "exit": 0,
        "stdout": "a4a5e0f0358c5c04dd6ebeec3b6319f13ed1f868ff573903052dd68bfd8e95da",
        "stderr": EMPTY,
        "files": {},
    },
    "forecast table unpublished": {
        "exit": 0,
        "stdout": "45036a58646e6eca4b69db98ca2b5ba635216a51dc3233b3d8f3b5f0abe81359",
        "stderr": EMPTY,
        "files": {},
    },
    "estimate uf": {
        "exit": 0,
        "stdout": "881f4c132a9820a896947a4864a6619e7f5b5e58935f0e33495d376007365853",
        "stderr": EMPTY,
        "files": {},
    },
    "estimate fit": {
        "exit": 0,
        "stdout": "feb7ec8999cfcdb550e4c2a37bce9cdea38ec9ca92eb3197dcc5fcf4f6be975c",
        "stderr": EMPTY,
        "files": {},
    },
    "estimate uf linear": {
        "exit": 0,
        "stdout": "5ea7b54c299d03561b4e7bf94f7b8c4a9e545fa00c65fa8aaa5bc5cc7eceb5c3",
        "stderr": EMPTY,
        "files": {},
    },
    "estimate uf sqrt": {
        "exit": 0,
        "stdout": "49229c1ad3e54c85d398537dc5185fbc5b745325afa214047c4a2220c663e8fb",
        "stderr": EMPTY,
        "files": {},
    },
    "estimate fit linear": {
        "exit": 0,
        "stdout": "9cc6b4d2a3d1852b43df984090db7e85f2bd8f7e77b4a9edcb9a5941ce15a978",
        "stderr": EMPTY,
        "files": {},
    },
    "estimate fit sqrt": {
        "exit": 0,
        "stdout": "5816381322e80d0263f4071ee07832f2f9f0a2ef91e151fa0b4c727f9fc4810c",
        "stderr": EMPTY,
        "files": {},
    },
    "fit-arrival": {
        "exit": 0,
        "stdout": "3c98c6e0adc221cbfbc24bc52c5e046b0f7396c17fac118f35e98947b4885d44",
        "stderr": EMPTY,
        "files": {},
    },
    "fit-arrival out": {
        "exit": 0,
        "stdout": "3f1e4df4702347d9c8ad21af213d187303d18c732dd91b0f71a73d32c12116f1",
        "stderr": EMPTY,
        "files": {
            "fit.json": "3c98c6e0adc221cbfbc24bc52c5e046b0f7396c17fac118f35e98947b4885d44",
        },
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(workdir: Path) -> dict[str, dict]:
    """Run every case in order inside ``workdir``; digests by case."""
    for source in INPUTS.iterdir():
        shutil.copy(source, workdir / source.name)
    results = {}
    before = os.getcwd()
    os.chdir(workdir)
    try:
        for name, (argv, written) in CASES.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            results[name] = {
                "exit": code,
                "stdout": _sha(out.getvalue().encode("utf-8")),
                "stderr": _sha(err.getvalue().encode("utf-8")),
                "files": {path: _sha(Path(path).read_bytes()) for path in written},
            }
    finally:
        os.chdir(before)
    return results


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> dict[str, dict]:
    return run_all(tmp_path_factory.mktemp("golden"))


def test_every_case_is_recorded():
    assert set(EXPECTED) == set(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_output_bytes_match_the_record(results, case):
    assert results[case] == EXPECTED[case]
