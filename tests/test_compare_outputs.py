"""``scripts/compare_outputs.py``, the byte-identity check between two checkouts."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "compare_outputs.py"


def _compare(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change), "--rows", "300"],
        capture_output=True, text=True, timeout=300, check=False,
    )


def test_a_checkout_matches_itself():
    done = _compare(REPO, REPO)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "rows 300: 0 difference(s)\n"


def test_a_changed_output_file_is_reported(tmp_path):
    change = tmp_path / "change"
    shutil.copytree(REPO / "src", change / "src", ignore=shutil.ignore_patterns("__pycache__"))
    module = change / "src" / "defectlab" / "ledger.py"
    text = module.read_text(encoding="utf-8")
    old = 'json.dumps(build_ledger(profiles, records), indent=2)'
    assert text.count(old) == 1
    module.write_text(text.replace(old, old.replace("indent=2", "indent=1")), encoding="utf-8")
    done = _compare(REPO, change)
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout.startswith("rows 300: file ledger.json: ")
    assert done.stdout.endswith("rows 300: 1 difference(s)\n")


def test_a_changed_csv_form_is_reported(tmp_path):
    change = tmp_path / "change"
    shutil.copytree(REPO / "src", change / "src", ignore=shutil.ignore_patterns("__pycache__"))
    for name, old, new in [
        ("metrics.py", "csv.writer(out)", 'csv.writer(out, lineterminator="\\n")'),
        ("revisions.py", '"dre_pct\\\\dir_pct,"', '"dre_pct/dir_pct,"'),
    ]:
        module = change / "src" / "defectlab" / name
        text = module.read_text(encoding="utf-8")
        assert text.count(old) == 1
        module.write_text(text.replace(old, new), encoding="utf-8")
    done = _compare(REPO, change)
    assert done.returncode == 1, done.stdout + done.stderr
    *found, total = done.stdout.splitlines()
    assert [line.split(": ")[:3] for line in found] == [
        ["rows 300", "forecast_table_csv", "stdout"], ["rows 300", "metrics_csv", "stdout"],
    ]
    assert total == "rows 300: 2 difference(s)"


def test_a_changed_refusal_is_reported(tmp_path):
    change = tmp_path / "change"
    shutil.copytree(REPO / "src", change / "src", ignore=shutil.ignore_patterns("__pycache__"))
    module = change / "src" / "defectlab" / "revisions.py"
    text = module.read_text(encoding="utf-8")
    for old in ('"invalid process parameters"', '"invalid grid parameters"'):
        assert text.count(old) == 1
        text = text.replace(old, old.replace("invalid", "bad"))
    module.write_text(text, encoding="utf-8")
    done = _compare(REPO, change)
    assert done.returncode == 1, done.stdout + done.stderr
    *found, total = done.stdout.splitlines()
    assert [line.split(": ")[:3] for line in found] == [
        ["rows 300", "forecast_refused", "stderr"],
        ["rows 300", "forecast_table_refused", "stderr"],
    ]
    assert total == "rows 300: 2 difference(s)"


def test_a_changed_unknown_product_refusal_is_reported(tmp_path):
    change = tmp_path / "change"
    shutil.copytree(REPO / "src", change / "src", ignore=shutil.ignore_patterns("__pycache__"))
    module = change / "src" / "defectlab" / "cli.py"
    text = module.read_text(encoding="utf-8")
    old = '"unknown product '
    assert text.count(old) == 1
    module.write_text(text.replace(old, '"no such product '), encoding="utf-8")
    done = _compare(REPO, change)
    assert done.returncode == 1, done.stdout + done.stderr
    *found, total = done.stdout.splitlines()
    assert [line.split(": ")[:3] for line in found] == [
        ["rows 300", "metrics_unknown_product", "stderr"],
        ["rows 300", "report_unknown_product", "stderr"],
    ]
    assert total == "rows 300: 2 difference(s)"
