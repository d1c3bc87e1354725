"""Compare two checkouts' answers to the same damaged inputs.

    python3 scripts/compare_mutations.py PARENT CHANGE

``mutate_inputs.mutate``, from the checkout that holds this file, makes
``COUNT`` damaged copies of the golden inputs from ``SEED`` and runs each
command that reads the damaged input: once in a child interpreter with
PARENT's ``src`` on ``PYTHONPATH``, and once in one with CHANGE's, both
from the same directory.  The exit code, stdout and stderr of each
command's first run, and the files it wrote, are compared byte for byte,
as ``compare_outputs.py`` compares them.  Each difference is printed;
the exit code is 1 if there is any, else 0.
"""

from __future__ import annotations

import argparse
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from compare_outputs import differences

SCRIPTS = Path(__file__).resolve().parent
SEED = 28
COUNT = 300

#: The child: argv is the scripts directory, the seed, the count, the
#: directory to run in and the file that receives what each run gave.
_CHILD = """\
import pickle, sys
from pathlib import Path
scripts, seed, count, work, out = sys.argv[1:]
sys.path.insert(0, scripts)
import mutate_inputs
seen = {}
for _, _, runs in mutate_inputs.mutate(int(seed), int(count), Path(work)):
    for label, (code, stdout, stderr, files), _ in runs:
        seen[f"{label}: exit code"] = str(code).encode()
        seen[f"{label}: stdout"] = stdout.encode("utf-8", "backslashreplace")
        seen[f"{label}: stderr"] = stderr.encode("utf-8", "backslashreplace")
        seen.update((f"{label}: file {name}", data) for name, data in files.items())
Path(out).write_bytes(pickle.dumps(seen))
"""


def run_side(checkout: Path, work: Path) -> dict[str, bytes]:
    """What each run gave with ``checkout``'s ``src``, by name.  The runs
    are made in ``work``, which is removed after."""
    out = work.with_suffix(".pickle")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    subprocess.run(
        [sys.executable, "-c", _CHILD, str(SCRIPTS), str(SEED), str(COUNT), str(work), str(out)],
        env=env, check=True,
    )
    seen = pickle.loads(out.read_bytes())
    out.unlink()
    shutil.rmtree(work)
    return seen


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "defectlab" / "__init__.py").is_file():
            print(f"error: no src/defectlab under {checkout}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="compare-mutations-") as tmp:
        work = Path(tmp) / "copies"
        parent = run_side(args.parent.resolve(), work)
        change = run_side(args.change.resolve(), work)
        lines = differences(parent, change)
    for line in lines:
        print(line)
    runs = sum(name.endswith(": exit code") for name in parent)
    print(f"seed {SEED}, {COUNT} mutation(s), {runs} run(s) per checkout: "
          f"{len(lines)} difference(s)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
