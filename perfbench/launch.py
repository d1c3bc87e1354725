"""Traced launcher: run one defectlab command and record where its time went.

    python3 perfbench/launch.py SPANS.json <defectlab arguments...>

Times ``import defectlab``, then replaces the public boundary functions
of each module, by attribute from outside, with wrappers that record a
span (name, start, end, parent) in memory, and the per-row and per-step
helpers with call counters.  It then calls ``defectlab.cli.run(argv)``
and exits with its code, so stdout, stderr and the exit code are those
of the plain CLI.  The spans, the counters and the import time are
written to SPANS.json when the command has finished.  The package
source is not touched: the modules look their callees up by attribute
or module global at call time, so the wrappers see nested calls such as
``dump_ledger -> build_ledger``.
"""

from __future__ import annotations

import functools
import os
import re
import stat
import sys
import time

#: Boundary functions that get a span, by module.  The cli entries are
#: its file I/O; ``cli.run`` itself is the root span.
SPANS = {
    "cli": ("_read_text", "_write_text"),
    "ledger": (
        "parse_defect_log",
        "parse_product_registry",
        "dump_ledger",
        "build_ledger",
        "load_ledger",
        "arrival_series",
    ),
    "metrics": ("summarize", "summaries_to_json"),
    "revisions": ("revisions_to_signoff", "revision_table", "grid_to_json", "simulate_monte_carlo"),
    "rayleigh": ("fit_arrival", "expected_bucket_counts"),
    "sizing": ("parse_scatter", "fit_linear", "fit_sqrt", "residual_sum_of_squares"),
    "charts": ("arrival_chart",),
}

#: Per-row and per-step helpers: a call counter each, never a span.
COUNTERS = {
    "ledger.parse_timestamp": "ledger.parse_timestamp_calls",
    "ledger.format_timestamp": "ledger.format_timestamp_calls",
    "rayleigh.rayleigh_cdf": "rayleigh.cdf_calls",
    "revisions.revision_step": "revisions.revision_steps",
}

_ROW = re.compile(r"^\s*row (\d+):", re.MULTILINE)


def _data_lines(text: str) -> int:
    lines = text.count("\n") + (0 if text.endswith("\n") or not text else 1)
    return max(0, lines - 1)


class Tracer:
    """Spans and counters of one command, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def add(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, fn, args: tuple, kwargs: dict, note=None):
        """Run ``fn`` inside a span; ``note`` sees the arguments and the
        result or exception after the span has closed."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        outcome = error = None
        try:
            outcome = fn(*args, **kwargs)
            return outcome
        except Exception as exc:
            error = exc
            raise
        finally:
            self.spans[index][2] = time.perf_counter_ns()
            self.stack.pop()
            if note is not None:
                note(self, args, outcome, error)

    def span(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] = self.counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


def _note_parse(tracer: Tracer, args: tuple, result, error) -> None:
    text = args[0] if args else ""
    tracer.add("ledger.rows_read", _data_lines(text) if isinstance(text, str) else 0)
    diagnostics = getattr(error, "diagnostics", ())
    tracer.add("ledger.rows_rejected", len({m for d in diagnostics for m in _ROW.findall(d)}))


def _note_load(tracer: Tracer, args: tuple, result, error) -> None:
    if result is not None:
        tracer.add("ledger.records_loaded", len(result[1]))


def _note_monte_carlo(tracer: Tracer, args: tuple, result, error) -> None:
    if result is not None:
        tracer.add("revisions.mc_trials", result.trials)
        tracer.add("revisions.mc_censored", result.censored)


def _note_fit(tracer: Tracer, args: tuple, result, error) -> None:
    if result is not None:
        tracer.add("rayleigh.buckets", result.buckets_used)


def _note_chart(tracer: Tracer, args: tuple, result, error) -> None:
    if result is not None:
        tracer.add("charts.svg_bytes", len(result.encode("utf-8")))


def _note_read(tracer: Tracer, args: tuple, result, error) -> None:
    if result is not None:
        tracer.add("cli.bytes_in", os.path.getsize(args[0]))


def _note_write(tracer: Tracer, args: tuple, result, error) -> None:
    if error is None:
        tracer.add("cli.bytes_out", os.path.getsize(args[0]))


NOTES = {
    "ledger.parse_defect_log": _note_parse,
    "ledger.load_ledger": _note_load,
    "revisions.simulate_monte_carlo": _note_monte_carlo,
    "rayleigh.fit_arrival": _note_fit,
    "charts.arrival_chart": _note_chart,
    "cli._read_text": _note_read,
    "cli._write_text": _note_write,
}


def install(tracer: Tracer, package) -> None:
    """Wrap every listed function the package still has."""
    for module_name, names in SPANS.items():
        module = getattr(package, module_name)
        for name in names:
            if hasattr(module, name):
                qualified = f"{module_name}.{name}"
                wrapped = tracer.span(qualified, getattr(module, name), NOTES.get(qualified))
                setattr(module, name, wrapped)
    for qualified, counter in COUNTERS.items():
        module_name, name = qualified.split(".")
        module = getattr(package, module_name)
        if hasattr(module, name):
            setattr(module, name, tracer.counter(counter, getattr(module, name)))


def _stdout_bytes() -> int:
    """Bytes written to stdout, when it is redirected to a file."""
    try:
        info = os.fstat(sys.stdout.fileno())
    except (OSError, ValueError):
        return 0
    return info.st_size if stat.S_ISREG(info.st_mode) else 0


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter_ns()
    import defectlab
    import defectlab.cli

    import_ns = time.perf_counter_ns() - start
    # Imported after the timed import, so that defectlab pays for it
    # as it would in a plain process.
    import json

    tracer = Tracer()
    install(tracer, defectlab)
    code = tracer.call("cli.run", defectlab.cli.run, (cli_args,), {})
    sys.stdout.flush()
    tracer.add("cli.bytes_out", _stdout_bytes())
    record = {
        "command": os.path.basename(spans_path),
        "import_ns": import_ns,
        "numpy_loaded": "numpy" in sys.modules,
        "counters": tracer.counters,
        "spans": tracer.spans,
    }
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
