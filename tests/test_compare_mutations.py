"""``scripts/compare_mutations.py``, the damaged-input comparison between two checkouts."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "compare_mutations.py"


def _compare(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change)],
        capture_output=True, text=True, timeout=300, check=False,
    )


def test_a_checkout_matches_itself():
    done = _compare(REPO, REPO)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "seed 28, 300 mutation(s), 358 run(s) per checkout: 0 difference(s)\n"


def test_a_reworded_message_is_reported(tmp_path):
    change = tmp_path / "change"
    shutil.copytree(REPO / "src", change / "src", ignore=shutil.ignore_patterns("__pycache__"))
    module = change / "src" / "defectlab" / "ledger.py"
    text = module.read_text(encoding="utf-8")
    old = 'f"invalid timestamp {show_value(text)}"'
    assert text.count(old) == 1
    module.write_text(text.replace(old, old.replace("invalid", "bad")), encoding="utf-8")
    done = _compare(REPO, change)
    assert done.returncode == 1, done.stdout + done.stderr
    *found, total = done.stdout.splitlines()
    assert found
    # Each difference is on stderr, where the reworded message starts.
    assert all(": stderr: " in line and "invalid timestamp" in line for line in found)
    assert any(": ingest --defects " in line for line in found)
    assert total == f"seed 28, 300 mutation(s), 358 run(s) per checkout: {len(found)} difference(s)"
