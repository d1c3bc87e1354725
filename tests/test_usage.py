"""Help and usage errors, byte for byte, as a user at a terminal sees them.

``data/usage.json`` holds, for each argv, the exit code, stdout and
stderr of ``python -m defectlab`` with ``COLUMNS=80``, recorded before
the exact command-line reader existed, when argparse read every command
line.  argparse's own formatting moved within 3.13 (the column of the
subcommand list, the quoting of choices), so a case may hold one
outcome per formatting, each listing the interpreters it was recorded
on; the output must equal one of them.  The accepted cases
(``--units=2182``, the abbreviation ``--uni``) and ``--dir -0.1``, which
fails only in ``ProcessParams``, pin the command lines that argparse
alone must still read.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import defectlab

SRC = str(Path(defectlab.__file__).resolve().parent.parent)
CASES = json.loads((Path(__file__).parent / "data" / "usage.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_as_recorded(case, tmp_path):
    argv = CASES[case]["argv"]
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-m", "defectlab", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    outcome = {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr}
    recorded = [{key: known[key] for key in outcome} for known in CASES[case]["outcomes"]]
    assert outcome in recorded, outcome
