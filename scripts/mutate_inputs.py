"""Check the exit-code contract on mutated copies of the golden inputs.

    python3 scripts/mutate_inputs.py [--seed N] [--count N]

The inputs are the files in ``tests/data/golden/`` and the ledger that
``ingest`` writes from them.  From the seed, each of ``count`` mutations
picks one input and one kind of damage (``KINDS``) and writes a copy of
every input with that one damaged.  Then each command that reads the
damaged input (``COMMANDS``) runs in process, through ``cli.run``, from
the copy's directory, twice.  Each run must exit with a code from 0 to
3, print exactly one ``error:`` line on stderr if the code is nonzero
and none if it is 0, print no traceback, and print strict JSON on
stdout if it exits 0; the second run must give the same code, stdout,
stderr and written files.  Each breach is printed; the exit code is 1
if there is any, else 0.  ``mutate`` yields what each run gave, which
``compare_mutations.py`` compares between two checkouts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
import tempfile
import traceback
import warnings
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"

#: The csv module's default field size limit, in characters.
FIELD_LIMIT = 131_072

#: Nesting depths of the deep-nesting mutation: one a decoder takes,
#: and one past the interpreter's recursion limit.
DEPTHS = (50, 100_000)

_INGEST = ["ingest", "--defects", "defects.csv", "--products", "products.json",
           "--out", "out.json"]

#: The commands that read each input, with the files each writes.
COMMANDS: dict[str, list[tuple[list[str], list[str]]]] = {
    "defects.csv": [(_INGEST, ["out.json"])],
    "defects_invalid.csv": [
        (["ingest", "--defects", "defects_invalid.csv", "--products", "products.json",
          "--out", "out.json"], ["out.json"]),
    ],
    "products.json": [(_INGEST, ["out.json"])],
    "ledger.json": [
        (["metrics", "--ledger", "ledger.json"], []),
        (["report", "--ledger", "ledger.json", "--svg", "out.svg"], ["out.svg"]),
    ],
    "scatter.csv": [(["estimate", "--fit", "scatter.csv"], [])],
    "series.csv": [(["fit-arrival", "--series", "series.csv"], [])],
}


def _lines(data: bytes) -> list[bytes]:
    return data.splitlines(keepends=True)


def byte_flip(data: bytes, rng: random.Random) -> bytes:
    at = rng.randrange(len(data))
    return data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]


def truncation(data: bytes, rng: random.Random) -> bytes:
    return data[:rng.randrange(len(data))]


def duplicated_row(data: bytes, rng: random.Random) -> bytes:
    lines = _lines(data)
    at = rng.randrange(len(lines))
    return b"".join(lines[:at + 1] + lines[at:])


def dropped_row(data: bytes, rng: random.Random) -> bytes:
    lines = _lines(data)
    at = rng.randrange(len(lines))
    return b"".join(lines[:at] + lines[at + 1:])


def long_cell(data: bytes, rng: random.Random) -> bytes:
    """One value becomes longer than ``FIELD_LIMIT``: a bare run of digits
    (in JSON, an integer literal) or a quoted run of letters."""
    digits, letters = "9" * (FIELD_LIMIT + 1), '"' + "x" * (FIELD_LIMIT + 1) + '"'
    return _replace_value(data, rng, rng.choice((digits, letters)))


def invalid_utf8(data: bytes, rng: random.Random) -> bytes:
    at = rng.randrange(len(data) + 1)
    return data[:at] + rng.choice((b"\xff", b"\xc3", b"\xed\xa0\x80")) + data[at:]


def deep_nesting(data: bytes, rng: random.Random) -> bytes:
    """One value becomes nested arrays."""
    depth = rng.choice(DEPTHS)
    return _replace_value(data, rng, "[" * depth + "]" * depth)


def renamed_key(data: bytes, rng: random.Random) -> bytes:
    """A JSON object key, or a CSV header name, gains a suffix."""
    if _is_json(data):
        doc = json.loads(data)
        objects = [doc] if isinstance(doc, dict) else []
        objects += [e for v in _arrays(doc) for e in v if isinstance(e, dict)]
        target = rng.choice(objects)
        key = rng.choice(sorted(target))
        renamed = {(k + "_renamed" if k == key else k): v for k, v in target.items()}
        target.clear()
        target.update(renamed)
        return (json.dumps(doc, indent=2) + "\n").encode()
    header, *rest = _lines(data)
    names = header.rstrip(b"\n").split(b",")
    at = rng.randrange(len(names))
    names[at] += b"_renamed"
    return b"".join([b",".join(names) + b"\n", *rest])


def bom(data: bytes, rng: random.Random) -> bytes:
    return b"\xef\xbb\xbf" + data


def _arrays(doc: object) -> list[list]:
    """The document's top-level arrays: itself, or its object's values."""
    if isinstance(doc, list):
        return [doc]
    return [v for v in doc.values() if isinstance(v, list)]


def _is_json(data: bytes) -> bool:
    return data.lstrip().startswith((b"[", b"{"))


def _replace_value(data: bytes, rng: random.Random, text: str) -> bytes:
    """The document with one value replaced by ``text``: a cell of a CSV
    data row, or a field of a JSON array's entry."""
    if not _is_json(data):
        lines = _lines(data)
        at = rng.randrange(1, len(lines))
        cells = lines[at].rstrip(b"\n").split(b",")
        cells[rng.randrange(len(cells))] = text.encode()
        lines[at] = b",".join(cells) + b"\n"
        return b"".join(lines)
    doc = json.loads(data)
    entry = rng.choice([e for v in _arrays(doc) for e in v])
    entry[rng.choice(sorted(entry))] = "\0marker"
    dumped = json.dumps(doc, indent=2) + "\n"
    return dumped.replace(json.dumps("\0marker"), text, 1).encode()


#: Every kind of damage, applied to the bytes of one input.
KINDS = (byte_flip, truncation, duplicated_row, dropped_row, long_cell, invalid_utf8,
         deep_nesting, renamed_key, bom)


def _refuse(constant: str):
    raise ValueError(f"non-finite number {constant}")


def _run(argv: list[str], written: list[str]) -> tuple:
    """Exit code, stdout, stderr and the written files of one in-process run."""
    from defectlab import cli

    for name in written:
        Path(name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    # A fresh warnings state per run, as a fresh process would have.
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception:  # the contract breach this script looks for
            code = None
            err.write(traceback.format_exc())
    files = {name: Path(name).read_bytes() for name in written if Path(name).exists()}
    return code, out.getvalue(), err.getvalue(), files


def _breaches(code, stdout: str, stderr: str) -> list[str]:
    found = []
    if code not in (0, 1, 2, 3):
        found.append(f"exit code {code}")
    errors = sum(line.startswith("error:") for line in stderr.splitlines())
    if errors != (0 if code == 0 else 1):
        found.append(f"{errors} error: line(s) at exit code {code}")
    if "Traceback" in stderr:
        found.append("traceback on stderr")
    if code == 0:
        try:
            json.loads(stdout, parse_constant=_refuse)
        except ValueError as exc:
            found.append(f"stdout is not strict JSON: {exc}")
    return found


def mutate(seed: int, count: int, work: Path) -> Iterator[tuple[str, str, list[tuple]]]:
    """Run ``count`` mutations from ``seed`` in ``work``, and yield each
    one's input, its kind of damage, and its runs: for each command that
    reads the input, a label and what its two runs gave, each as the exit
    code, stdout, stderr and written files.  The runs are made from
    ``work`` before each yield."""
    clean = {path.name: path.read_bytes() for path in sorted(GOLDEN.iterdir())}
    before = os.getcwd()
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    try:
        for name, data in clean.items():
            Path(name).write_bytes(data)
        code, *_ = _run(["ingest", "--defects", "defects.csv", "--products",
                         "products.json", "--out", "ledger.json"], [])
        if code != 0:
            raise RuntimeError(f"ingest of the golden inputs exited {code}")
        clean["ledger.json"] = Path("ledger.json").read_bytes()

        rng = random.Random(seed)
        for number in range(count):
            target = rng.choice(sorted(COMMANDS))
            kind = rng.choice(KINDS)
            for name, data in clean.items():
                Path(name).write_bytes(kind(data, rng) if name == target else data)
            yield target, kind.__name__, [
                (f"mutation {number} ({kind.__name__} of {target}): {' '.join(argv)}",
                 _run(argv, written), _run(argv, written))
                for argv, written in COMMANDS[target]
            ]
    finally:
        os.chdir(before)


def check(seed: int, count: int, work: Path) -> tuple[list[str], Counter[tuple[str, str]]]:
    """Run ``count`` mutations from ``seed`` in ``work``: one line per
    breach, and how many mutations each (input, kind) pair had."""
    breaches: list[str] = []
    tally: Counter[tuple[str, str]] = Counter()
    for target, kind, runs in mutate(seed, count, work):
        tally[target, kind] += 1
        for label, first, second in runs:
            breaches += [f"{label}: {b}" for b in _breaches(*first[:3])]
            if second != first:
                breaches.append(f"{label}: a second run differs")
    return breaches, tally


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=28)
    parser.add_argument("--count", type=int, default=300)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="mutate-inputs-") as work:
        breaches, tally = check(args.seed, args.count, Path(work))
    for line in breaches:
        print(line)
    print(f"{args.count} mutation(s) over {len(tally)} input and kind pair(s): "
          f"{len(breaches)} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
