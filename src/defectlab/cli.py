"""Command-line surface for the toolkit.

Subcommands: ingest, metrics, forecast, estimate, fit-arrival, report.
Outputs are byte-deterministic for fixed inputs (and seed, for the
Monte Carlo path); diagnostics go to stderr.  Exit codes: 0 success,
1 validation or domain error, 2 I/O error, 3 numerical
non-convergence.  Rate flags take fractions (0.07, not 7); outputs
print both forms.
"""

from __future__ import annotations

import errno
import gc
import json
import os
import sys
import warnings
from collections.abc import Sequence
from pathlib import Path
from types import SimpleNamespace

from .errors import DivergenceError, NonConvergenceError, ValidationError, show_value

# Each handler imports the modules it uses, so a command loads only
# its own, and argparse loads only for a command line ``_read_exact``
# leaves to it; these imports are for type checkers alone.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from collections.abc import Callable

    from . import rayleigh, revisions

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        shown = show_value(path)
        raise ValidationError(f"{shown} is not UTF-8: {exc.reason} at byte {exc.start}") from None


def _write_text(path: str, text: str) -> None:
    # A write that fails part way removes the file, so a failed command
    # leaves no half-written output behind.  Only a regular file is
    # removed: a device, a FIFO or a symlink, such as /dev/stdout, stays.
    with Path(path).open("w", encoding="utf-8") as out:
        try:
            out.write(text)
            out.flush()
        except OSError:
            if os.path.isfile(path) and not os.path.islink(path):
                os.remove(path)
            raise


def _cmd_ingest(args: argparse.Namespace) -> int:
    from . import ledger

    records = ledger.parse_defect_log(_read_text(args.defects))
    profiles = ledger.parse_product_registry(_read_text(args.products))
    text = ledger.dump_ledger(profiles, records)
    _write_text(args.out, text)
    print(json.dumps({"products": len(profiles), "defects": len(records), "out": args.out}))
    return EXIT_OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    from . import ledger, metrics

    profiles, records = ledger.load_ledger(_read_text(args.ledger))
    if args.product is not None:
        profiles = [p for p in profiles if p.product_id == args.product]
        if not profiles:
            raise ValidationError(f"unknown product {show_value(args.product)}")
    by_product: dict[str, list[ledger.DefectRecord]] = {}
    for record in records:
        by_product.setdefault(record.product_id, []).append(record)
    summaries = [
        metrics.summarize(by_product.get(p.product_id, []), p) for p in profiles
    ]
    if args.format == "csv":
        sys.stdout.write(metrics.summaries_to_csv(summaries))
    else:
        sys.stdout.write(metrics.summaries_to_json(summaries))
    return EXIT_OK


def _rates_payload(params: revisions.ProcessParams) -> dict:
    return {
        "units": params.units,
        "injection_rate": params.injection_rate,
        "injection_rate_pct": params.injection_rate * 100.0,
        "removal_efficiency": params.removal_efficiency,
        "removal_efficiency_pct": params.removal_efficiency * 100.0,
        "threshold": params.threshold,
    }


def _cmd_forecast(args: argparse.Namespace) -> int:
    from . import revisions

    threshold = revisions.SIGNOFF_THRESHOLD if args.threshold is None else args.threshold
    if not args.monte_carlo and (args.trials is not None or args.seed is not None):
        raise ValidationError("--trials and --seed apply only to --monte-carlo")
    if args.table:
        if args.monte_carlo:
            raise ValidationError("--table and --monte-carlo are mutually exclusive")
        if args.dir is not None or args.dre is not None:
            raise ValidationError("--dir and --dre do not apply to --table output")
        grid = revisions.revision_table(args.units, threshold=threshold)
        sys.stdout.write(
            revisions.grid_to_csv(grid) if args.format == "csv" else revisions.grid_to_json(grid)
        )
        return EXIT_OK
    if args.format == "csv":
        raise ValidationError("--format csv applies only to --table output")
    if args.dir is None or args.dre is None:
        raise ValidationError("forecast needs --dir and --dre (or --table)")
    params = revisions.ProcessParams(
        units=args.units,
        injection_rate=args.dir,
        removal_efficiency=args.dre,
        threshold=threshold,
    )
    if args.monte_carlo:
        if args.trials is None or args.seed is None:
            raise ValidationError("--monte-carlo needs --trials and --seed")
        outcome = revisions.simulate_monte_carlo(params, args.trials, args.seed)
        payload = _rates_payload(params) | {
            "trials": outcome.trials,
            "seed": outcome.seed,
            "mean_revisions": outcome.mean_revisions,
            "censored": outcome.censored,
            "histogram": outcome.histogram,
        }
    else:
        trajectory = revisions.revisions_to_signoff(params)
        payload = _rates_payload(params) | {
            "revisions": trajectory.revisions,
            "expected_defects": list(trajectory.expected_defects),
        }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    from . import sizing

    if (args.uf is None) == (args.fit is None):
        raise ValidationError("estimate needs exactly one of --uf or --fit")
    if args.uf is not None:
        payload: dict = {"uf": args.uf}
    else:
        points = sizing.parse_scatter(_read_text(args.fit))
        payload = {"points": len(points)}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for form, default, fit, predict in (
            ("linear", sizing.DEFAULT_LINEAR_MODEL, sizing.fit_linear, sizing.linear_estimate),
            ("sqrt", sizing.DEFAULT_SQRT_MODEL, sizing.fit_sqrt, sizing.sqrt_estimate),
        ):
            if args.model not in (form, "both"):
                continue
            if args.uf is not None:
                payload[form] = default._asdict() | {"estimate": predict(args.uf, default)}
            else:
                model = fit(points)
                rss = sizing.residual_sum_of_squares(points, lambda uf: predict(uf, model))
                payload[form] = model._asdict() | {"rss": rss}
    for caught_warning in caught:
        print(f"warning: {caught_warning.message}", file=sys.stderr)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _fit_payload(fit: rayleigh.RayleighFit, days: float | None, **between) -> dict:
    """The fit object of ``fit-arrival`` and ``report``, with ``between`` after ``sigma_days``."""
    return {
        "k_total": fit.k_total,
        "sigma": fit.sigma,
        "sigma_days": None if days is None else fit.sigma * days,
        **between,
        "sse": fit.sse,
        "buckets_used": fit.buckets_used,
    }


def _cmd_fit_arrival(args: argparse.Namespace) -> int:
    from . import ledger, rayleigh

    # A fit needs three buckets, so a fitted series always has a width.
    counts, bucket_days = ledger.parse_series(_read_text(args.series))
    fit = rayleigh.fit_arrival(counts)
    payload = _fit_payload(fit, bucket_days, bucket_days=bucket_days)
    payload["cumulative_at_peak"] = fit.k_total * rayleigh.PEAK_FRACTION
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        _write_text(args.out, text)
        print(json.dumps({"out": args.out}))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    from datetime import timedelta

    from . import charts, ledger, rayleigh

    # The upper bound is the widest bucket a timedelta can hold.
    if not 0 < args.bucket_days <= timedelta.max.days:
        raise ValidationError(
            f"--bucket-days must be within (0, {timedelta.max.days}], got {args.bucket_days}"
        )
    width = timedelta(days=args.bucket_days)
    if not width:  # a timedelta holds whole microseconds
        raise ValidationError(f"--bucket-days {args.bucket_days} rounds to a zero-width bucket")
    profiles, records = ledger.load_ledger(_read_text(args.ledger))
    scope = "all products"
    if args.product is not None:
        if not any(p.product_id == args.product for p in profiles):
            raise ValidationError(f"unknown product {show_value(args.product)}")
        records = [r for r in records if r.product_id == args.product]
        scope = args.product
    if not records:
        raise ValidationError("no defect records to chart")
    counts = ledger.arrival_series(records, width)

    fitted = fit_payload = fit_note = None
    try:
        fit = rayleigh.fit_arrival(counts)
        fitted = rayleigh.expected_bucket_counts(fit.k_total, fit.sigma, len(counts))
        fit_payload = _fit_payload(fit, args.bucket_days)
    except (NonConvergenceError, ValidationError) as exc:
        fit_note = str(exc)

    svg = charts.arrival_chart(counts, fitted, title=f"Defect arrivals: {scope}")
    _write_text(args.svg, svg)
    print(json.dumps({
        "defects": len(records),
        "buckets": len(counts),
        "bucket_days": args.bucket_days,
        "fit": fit_payload,
        "fit_note": fit_note,
        "svg": args.svg,
    }, indent=2))
    return EXIT_OK


#: Each subcommand's handler, help line and flags, in ``--help`` order.
#: A flag maps to its ``add_argument`` keywords; ``_build_parser``
#: passes them on as they are, and ``_read_exact`` reads ``action``,
#: ``type``, ``choices``, ``required`` and ``default`` from the same
#: dicts.  ``_dispatch`` calls the handler.
_COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], int], str, dict[str, dict]]] = {
    "ingest": (_cmd_ingest, "validate a defect CSV and product JSON into a ledger", {
        "--defects": {"required": True, "help": "defect log CSV path"},
        "--products": {"required": True, "help": "product registry JSON path"},
        "--out": {"required": True, "help": "ledger JSON output path"},
    }),
    "metrics": (_cmd_metrics, "quality metrics per product from a ledger", {
        "--ledger": {"required": True, "help": "ledger JSON path"},
        "--product": {"help": "restrict to one product id"},
        "--format": {"choices": ("json", "csv"), "default": "json"},
    }),
    "forecast": (_cmd_forecast, "revisions to sign-off from injection/removal rates", {
        "--units": {"required": True, "type": int, "help": "units of work in the build"},
        "--dir": {"type": float, "help": "defect injection rate, as a fraction"},
        "--dre": {"type": float, "help": "defect removal efficiency, as a fraction"},
        "--threshold": {"type": float,
                        "help": "sign-off threshold on expected residual defects"},
        "--monte-carlo": {"action": "store_true", "help": "simulate instead of recurring"},
        "--trials": {"type": int, "help": "Monte Carlo trial count"},
        "--seed": {"type": int, "help": "Monte Carlo seed (required with --monte-carlo)"},
        "--table": {"action": "store_true",
                    "help": "emit the full rate grid instead of a single forecast"},
        "--format": {"choices": ("json", "csv"), "default": "json",
                     "help": "output form for --table"},
    }),
    "estimate": (_cmd_estimate, "expected issues from model size", {
        "--uf": {"type": int, "help": "unique formula count to estimate for"},
        "--model": {"choices": ("linear", "sqrt", "both"), "default": "both"},
        "--fit": {"help": "scatter CSV (uf,issues) to fit models to"},
    }),
    "fit-arrival": (_cmd_fit_arrival, "fit the arrival model to a bucketed series", {
        "--series": {"required": True, "help": "CSV with columns bucket_start,count"},
        "--out": {"help": "write fit JSON here instead of stdout"},
    }),
    "report": (_cmd_report, "arrival chart (SVG) with fitted overlay from a ledger", {
        "--ledger": {"required": True, "help": "ledger JSON path"},
        "--svg": {"required": True, "help": "SVG output path"},
        "--product": {"help": "restrict to one product id"},
        "--bucket-days": {"type": float, "default": 7.0, "help": "arrival bucket width in days"},
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser for ``_COMMANDS``: the reference reader, and
    the only one that prints help or usage errors."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str):  # noqa: ANN201 - argparse signature
            # argparse echoes unrecognized tokens raw; escape a newline in one.
            raise ValidationError("".join(c if c.isprintable() else repr(c)[1:-1] for c in message))

    parser = _Parser(prog="defectlab", description="Defect analytics toolkit")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, (_handler, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
    return parser


def _read_exact(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace ``_build_parser().parse_args(argv)`` returns, or None.

    Reads only a subcommand followed by its exact long flags, each
    ``store_true`` flag alone and each other flag with a value that does
    not start with ``-``; the last of a repeated flag wins.  Every value
    must convert and be one of the flag's choices, and every required
    flag must be present.  Anything else (help, ``--flag=value``, an
    abbreviation, ``--``, any error) is None, for argparse to read.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = _COMMANDS[argv[0]][2]
    seen: dict[str, object] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        keywords = flags.get(token)
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            seen[token] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            seen[token] = keywords.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in keywords and seen[token] not in keywords["choices"]:
            return None
    values: dict[str, object] = {"command": argv[0]}
    for flag, keywords in flags.items():
        if flag not in seen and keywords.get("required"):
            return None
        unset = False if keywords.get("action") == "store_true" else keywords.get("default")
        values[flag[2:].replace("-", "_")] = seen.get(flag, unset)
    return SimpleNamespace(**values)


def _dispatch(argv: Sequence[str] | None) -> int:
    try:
        if sys.stdout is None:  # started with file descriptor 1 closed
            raise OSError(errno.EBADF, "standard output is closed")
        try:
            args = _read_exact(sys.argv[1:] if argv is None else argv)
            if args is None:
                args = _build_parser().parse_args(argv)
            return _COMMANDS[args.command][0](args)
        finally:
            # A failed write to stdout is an I/O error, here and not at exit.
            sys.stdout.flush()
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DivergenceError, NonConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, dispatch, and map errors to exit codes.

    A command line of exact long flags with valid values is read from
    ``_COMMANDS`` without building a parser; argparse reads the rest, so
    help, usage errors and other spellings behave as argparse makes them.

    The cyclic garbage collector is paused while the command runs and
    left as the caller had it.  A command allocates tens of thousands of
    CSV rows, JSON dicts and records, none of which can form a cycle, so
    each collection walks them all and frees nothing.  The few objects
    that do form cycles (a few hundred when argparse builds its parser)
    are the same for any input, and are left for the collector's next
    run.  The caller owns the collector; ``main`` is the caller that
    leaves it off.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _dispatch(argv)
    finally:
        if was_enabled:
            gc.enable()


def main() -> None:
    """Entry point of the ``defectlab`` script and ``python -m defectlab``.

    The process ends right after the command, so no collection can free
    anything worth the walk: ``main`` owns the collector, turns it off
    for good, and freezes the heap before it exits.  The shutdown
    collections ignore ``gc.disable()`` but skip frozen objects, so they
    no longer walk the tens of thousands of objects numpy and the
    command leave behind.  Output files are written and closed, and
    stdout flushed, before ``run`` returns; the interpreter still runs
    atexit handlers.

    When stdout cannot be written, ``run`` has reported it, and what is
    left in its buffer goes to ``os.devnull``, so that the interpreter's
    own flush at exit cannot fail a second time.
    """
    gc.disable()
    code = run(sys.argv[1:])
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    gc.freeze()
    sys.exit(code)
