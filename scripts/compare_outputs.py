"""Compare two checkouts' outputs byte for byte on the benchmark's commands.

    python3 scripts/compare_outputs.py PARENT CHANGE [--rows N ...]

For each row count, ``perfbench/gen.py --seed 1`` writes the inputs
once.  Then every command kind of ``perfbench/run.py``'s ``script()``,
followed by the CSV forms of ``metrics`` and ``forecast --table``, by
``report --product p07 --bucket-days 1``, and by two ``forecast``
commands refused for several flags at once, whose one ``error:`` line
lists every problem, runs as ``python -m
defectlab`` in PARENT, in order, and again in CHANGE, each with that
checkout's ``src`` on ``PYTHONPATH``.  Both sides read the same input
paths and write to the same output paths, since ``ingest`` and
``report`` print them.  The exit code, stdout and stderr
of each command and every file the commands wrote are compared byte for
byte.  Each difference is printed; the exit code is 1 if there is any,
else 0.  The generator and the command script come from the checkout
that holds this file.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Monte Carlo trials of the two ``forecast --monte-carlo`` commands.
MC_TRIALS = 1_000
SEED = 1


def _load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up
    spec.loader.exec_module(module)
    return module


def run_side(checkout: Path, commands: list, outputs: Path) -> dict[str, bytes]:
    """Run the commands in ``checkout``; what each printed and returned,
    and every file under ``outputs``, by name.  ``outputs`` is removed after."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    outputs.mkdir()
    seen = {}
    for command in commands:
        done = subprocess.run(
            [sys.executable, "-m", "defectlab", *command.argv],
            cwd=checkout, env=env, capture_output=True, check=False,
        )
        seen[f"{command.key}: exit code"] = str(done.returncode).encode()
        seen[f"{command.key}: stdout"] = done.stdout
        seen[f"{command.key}: stderr"] = done.stderr
    for path in sorted(outputs.rglob("*")):
        if path.is_file():
            seen[f"file {path.relative_to(outputs)}"] = path.read_bytes()
    shutil.rmtree(outputs)
    return seen


def differences(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    """One line for each name whose bytes differ or that one side lacks."""
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        old, new = parent.get(name), change.get(name)
        if old == new:
            continue
        if old is None or new is None:
            lines.append(f"{name}: only in {'CHANGE' if old is None else 'PARENT'}")
            continue
        at = len(os.path.commonprefix([old, new]))
        lines.append(
            f"{name}: {len(old)} vs {len(new)} bytes, first difference at byte {at}: "
            f"{old[at:at + 60]!r} vs {new[at:at + 60]!r}"
        )
    return lines


def compare(parent: Path, change: Path, rows: int, work: Path) -> list[str]:
    runner = _load_runner()
    inputs, outputs = work / "in", work / "out"
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "gen.py"), "--seed", str(SEED),
         "--rows", str(rows), "--out", str(inputs)],
        check=True,
    )
    commands = runner.script(runner.Workload(rows=rows, mc_trials=MC_TRIALS), inputs, outputs,
                             SEED)
    # The benchmark runs the first two commands in their JSON form only,
    # ``report`` only over all products at 7-day buckets, where the
    # overlay has a few dozen points, and no refusal that lists several
    # problems.  The ledger is the one its ``ingest`` wrote.
    ledger = f"{outputs}/ledger.json"
    commands += [
        runner.Command("metrics_csv", ("metrics", "--ledger", ledger, "--format", "csv"), 0),
        runner.Command("forecast_table_csv",
                       ("forecast", "--units", "2000", "--table", "--format", "csv"), 0),
        runner.Command("report_p07_daily",
                       ("report", "--ledger", ledger, "--svg", f"{outputs}/p07.svg",
                        "--product", "p07", "--bucket-days", "1"), 0),
        runner.Command("forecast_refused",
                       ("forecast", "--units", "0", "--dir", "2", "--dre", "nan",
                        "--threshold", "1e-320"), 1),
        runner.Command("forecast_table_refused",
                       ("forecast", "--units", "0", "--table", "--threshold", "0"), 1),
    ]
    return differences(run_side(parent, commands, outputs), run_side(change, commands, outputs))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rows", type=int, nargs="+", default=[1_000, 50_000])
    args = parser.parse_args()
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "defectlab" / "__init__.py").is_file():
            print(f"error: no src/defectlab under {checkout}", file=sys.stderr)
            return 2
    found = False
    for rows in args.rows:
        with tempfile.TemporaryDirectory(prefix="compare-outputs-") as work:
            lines = compare(args.parent.resolve(), args.change.resolve(), rows, Path(work))
        for line in lines:
            print(f"rows {rows}: {line}")
        print(f"rows {rows}: {len(lines)} difference(s)")
        found = found or bool(lines)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
