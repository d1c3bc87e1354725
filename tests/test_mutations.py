"""``scripts/mutate_inputs.py``: mutated inputs keep the exit-code contract.

A fixed seed and a fixed count, so the run is the same every time.
"""

from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

from defectlab import ValidationError, ledger

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "mutate_inputs.py"
SEED = 28
COUNT = 300


def _script():
    spec = importlib.util.spec_from_file_location("mutate_inputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutated_inputs_keep_the_exit_code_contract(tmp_path):
    script = _script()
    breaches, tally = script.check(SEED, COUNT, tmp_path)
    assert breaches == []
    # Every kind of damage reached every input.
    assert set(tally) == set(itertools.product(script.COMMANDS, (k.__name__ for k in script.KINDS)))


def test_a_command_that_raises_is_reported(tmp_path, monkeypatch):
    def fail(text):
        raise RuntimeError("planted")

    monkeypatch.setattr(ledger, "parse_series", fail)
    breaches, _ = _script().check(SEED, 30, tmp_path)
    assert breaches
    assert all(" fit-arrival --series series.csv: " in line for line in breaches)
    assert any(line.endswith(": traceback on stderr") for line in breaches)


def test_a_run_that_differs_from_the_first_is_reported(tmp_path, monkeypatch):
    calls = itertools.count()

    def fail(text):
        raise ValidationError(f"planted failure {next(calls)}")

    monkeypatch.setattr(ledger, "load_ledger", fail)
    breaches, _ = _script().check(SEED, 30, tmp_path)
    assert breaches
    assert all(line.endswith(": a second run differs") for line in breaches)
    assert all(" --ledger ledger.json" in line for line in breaches)
