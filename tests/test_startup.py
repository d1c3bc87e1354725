"""Startup cost: only the Monte Carlo loads numpy, each command loads
only the modules it uses, and only help, usage errors and other
spellings of a command line load argparse.

Each check runs in a fresh interpreter, because this test process may
already hold numpy and every submodule.  The commands run in-process
there through ``cli.run`` on the golden inputs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import defectlab

INPUTS = Path(__file__).parent / "data" / "golden"
SRC = str(Path(defectlab.__file__).resolve().parent.parent)
PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

#: Every command path that needs no Monte Carlo.
NUMPY_FREE = {
    "ingest": ["ingest", "--defects", "defects.csv", "--products", "products.json",
               "--out", "ledger.json"],
    "metrics": ["metrics", "--ledger", "ledger.json"],
    "report": ["report", "--ledger", "ledger.json", "--svg", "report.svg"],
    "forecast": ["forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.75"],
    "forecast --table": ["forecast", "--units", "2000", "--table"],
    "estimate": ["estimate", "--fit", "scatter.csv"],
    "estimate --uf": ["estimate", "--uf", "2182"],
    "fit-arrival": ["fit-arrival", "--series", "series.csv"],
}
MONTE_CARLO = ["forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.75",
               "--monte-carlo", "--trials", "2000", "--seed", "7"]
#: The histogram of MONTE_CARLO, recorded from the sampler that draws
#: one binomial per cycle.
MONTE_CARLO_HISTOGRAM = {"4": 29, "5": 561, "6": 942, "7": 387, "8": 73, "9": 8}

#: Runs each argv of a JSON list in turn and prints, as JSON, whether
#: numpy was loaded after the import and after each command, with each
#: command's exit code and stdout.
CHILD = """
import contextlib, io, json, sys
import defectlab
from defectlab.cli import run
steps = [{"numpy": "numpy" in sys.modules}]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    steps.append({"exit": code, "stdout": out.getvalue(), "numpy": "numpy" in sys.modules})
print(json.dumps(steps))
"""


#: Runs one argv and prints, as JSON, the modules loaded after
#: ``import defectlab`` and after the command, with its exit code.
MODULES_CHILD = """
import contextlib, io, json, sys
import defectlab
imported = sorted(sys.modules)
from defectlab.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(json.loads(sys.argv[1]))
print(json.dumps({"imported": imported, "exit": code, "loaded": sorted(sys.modules)}))
"""

#: Prints, as JSON, whether ``getattr(defectlab, name)`` is the
#: submodule, for each module the benchmark's traced launcher wraps.
SPANS_CHILD = """
import json, sys
import defectlab, launch
print(json.dumps({m: getattr(defectlab, m) is sys.modules["defectlab." + m] for m in launch.SPANS}))
"""

#: Modules that pull in ``urllib.request``, ``ssl`` and the like; no
#: command needs them.
NEVER_LOADED = {"xml.sax", "http.client", "email"}

#: argparse and what its messages load; only a command line that
#: ``cli._read_exact`` leaves to argparse needs them.
ARGPARSE = {"argparse", "gettext", "locale"}

#: Command lines that argparse reads, with the exit code each gives.
ARGPARSE_READS = {
    "--help": (["--help"], 0),
    "forecast --help": (["forecast", "--help"], 0),
    "unknown flag": (["forecast", "--units", "10", "--sideways"], 1),
    "--units=2182": (["forecast", "--units=2182", "--dir", "0.07", "--dre", "0.75"], 0),
}


def _fresh_run(tmp_path, commands: list, child: str = CHILD, path: str = SRC):
    for source in INPUTS.iterdir():
        shutil.copy(source, tmp_path / source.name)
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", child, json.dumps(commands)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_only_the_monte_carlo_loads_numpy(tmp_path):
    imported, *steps, monte_carlo = _fresh_run(tmp_path, [*NUMPY_FREE.values(), MONTE_CARLO])
    assert not imported["numpy"]
    for name, step in zip(NUMPY_FREE, steps):
        assert step["exit"] == 0, name
        assert not step["numpy"], name
    assert monte_carlo["exit"] == 0
    assert monte_carlo["numpy"]
    payload = json.loads(monte_carlo["stdout"])
    assert payload["histogram"] == MONTE_CARLO_HISTOGRAM
    assert payload["mean_revisions"] == 5.969


def test_each_command_loads_only_its_own_modules(tmp_path):
    loaded = {}
    # One fresh interpreter per command; ingest runs first and writes
    # the ledger that metrics and report read.
    for name, argv in [*NUMPY_FREE.items(), ("forecast --monte-carlo", MONTE_CARLO)]:
        result = _fresh_run(tmp_path, argv, MODULES_CHILD)
        assert result["exit"] == 0, name
        assert [m for m in result["imported"] if m.startswith("defectlab.")] == [], name
        assert not NEVER_LOADED & set(result["imported"]), name
        loaded[name] = set(result["loaded"])
    assert [name for name, modules in loaded.items() if "defectlab.charts" in modules] == ["report"]
    for name, modules in loaded.items():
        assert not (NEVER_LOADED | ARGPARSE) & modules, name
    for name in ("forecast", "forecast --table", "estimate --uf"):
        assert not {"defectlab.ledger", "csv", "datetime"} & loaded[name], name
    # No value type needs dataclasses, and only numpy loads inspect.
    for name in NUMPY_FREE:
        assert not {"dataclasses", "inspect"} & loaded[name], name
    assert "dataclasses" not in loaded["forecast --monte-carlo"]


@pytest.mark.parametrize("name", sorted(ARGPARSE_READS))
def test_help_usage_errors_and_other_spellings_go_to_argparse(tmp_path, name):
    # tests/test_usage.py pins what these print.
    argv, code = ARGPARSE_READS[name]
    result = _fresh_run(tmp_path, argv, MODULES_CHILD)
    assert result["exit"] == code
    assert ARGPARSE <= set(result["loaded"])


def test_lazy_package_resolves_every_module_the_launcher_wraps(tmp_path):
    resolved = _fresh_run(tmp_path, [], SPANS_CHILD, os.pathsep.join([SRC, PERFBENCH]))
    assert resolved and all(resolved.values()), resolved


def test_dir_lists_every_public_name():
    assert set(defectlab.__all__) <= set(dir(defectlab))
