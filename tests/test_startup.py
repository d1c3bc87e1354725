"""Startup cost: only the Monte Carlo loads numpy.

Each check runs in a fresh interpreter, because this test process may
already hold numpy.  The commands run in-process there through
``cli.run`` on the golden inputs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import defectlab

INPUTS = Path(__file__).parent / "data" / "golden"
SRC = str(Path(defectlab.__file__).resolve().parent.parent)

#: Every command path that needs no Monte Carlo.
NUMPY_FREE = {
    "ingest": ["ingest", "--defects", "defects.csv", "--products", "products.json",
               "--out", "ledger.json"],
    "metrics": ["metrics", "--ledger", "ledger.json"],
    "report": ["report", "--ledger", "ledger.json", "--svg", "report.svg"],
    "forecast": ["forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.75"],
    "forecast --table": ["forecast", "--units", "2000", "--table"],
    "estimate": ["estimate", "--fit", "scatter.csv"],
    "fit-arrival": ["fit-arrival", "--series", "series.csv"],
}
MONTE_CARLO = ["forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.75",
               "--monte-carlo", "--trials", "2000", "--seed", "7"]
#: The histogram of MONTE_CARLO, recorded before numpy was imported lazily.
MONTE_CARLO_HISTOGRAM = {"4": 26, "5": 558, "6": 948, "7": 402, "8": 62, "9": 4}

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


def _fresh_run(tmp_path, commands: list[list[str]]) -> list[dict]:
    for source in INPUTS.iterdir():
        shutil.copy(source, tmp_path / source.name)
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)],
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
    assert payload["mean_revisions"] == 5.964
