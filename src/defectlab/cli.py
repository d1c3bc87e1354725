"""Command-line surface for the toolkit.

Subcommands: ingest, metrics, forecast, estimate, fit-arrival, report.
Outputs are byte-deterministic for fixed inputs (and seed, for the
Monte Carlo path); diagnostics go to stderr.  Exit codes: 0 success,
1 validation or domain error, 2 I/O error, 3 numerical
non-convergence.  Rate flags take fractions (0.07, not 7); outputs
print both forms.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import warnings
from collections.abc import Sequence
from pathlib import Path

from .errors import DivergenceError, NonConvergenceError, ValidationError

# Each handler imports the modules it uses, so a command loads only
# its own; this import is for type checkers alone.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from . import rayleigh, revisions

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: ANN201 - argparse signature
        raise ValidationError(message)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None


def _write_text(path: str, text: str) -> None:
    # Text is always fully computed before this point, so a failed
    # command never leaves a half-written output file behind.
    Path(path).write_text(text, encoding="utf-8")


def _build_parser() -> _Parser:
    parser = _Parser(prog="defectlab", description="Defect analytics toolkit")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("ingest", help="validate a defect CSV and product JSON into a ledger")
    p.add_argument("--defects", required=True, help="defect log CSV path")
    p.add_argument("--products", required=True, help="product registry JSON path")
    p.add_argument("--out", required=True, help="ledger JSON output path")

    p = sub.add_parser("metrics", help="quality metrics per product from a ledger")
    p.add_argument("--ledger", required=True, help="ledger JSON path")
    p.add_argument("--product", help="restrict to one product id")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("forecast", help="revisions to sign-off from injection/removal rates")
    p.add_argument("--units", required=True, type=int, help="units of work in the build")
    p.add_argument("--dir", type=float, help="defect injection rate, as a fraction")
    p.add_argument("--dre", type=float, help="defect removal efficiency, as a fraction")
    p.add_argument("--threshold", type=float,
                   help="sign-off threshold on expected residual defects")
    p.add_argument("--monte-carlo", action="store_true", help="simulate instead of recurring")
    p.add_argument("--trials", type=int, help="Monte Carlo trial count")
    p.add_argument("--seed", type=int, help="Monte Carlo seed (required with --monte-carlo)")
    p.add_argument("--table", action="store_true",
                   help="emit the full rate grid instead of a single forecast")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output form for --table")

    p = sub.add_parser("estimate", help="expected issues from model size")
    p.add_argument("--uf", type=int, help="unique formula count to estimate for")
    p.add_argument("--model", choices=("linear", "sqrt", "both"), default="both")
    p.add_argument("--fit", help="scatter CSV (uf,issues) to fit models to")

    p = sub.add_parser("fit-arrival", help="fit the arrival model to a bucketed series")
    p.add_argument("--series", required=True, help="CSV with columns bucket_start,count")
    p.add_argument("--out", help="write fit JSON here instead of stdout")

    p = sub.add_parser("report", help="arrival chart (SVG) with fitted overlay from a ledger")
    p.add_argument("--ledger", required=True, help="ledger JSON path")
    p.add_argument("--svg", required=True, help="SVG output path")
    p.add_argument("--product", help="restrict to one product id")
    p.add_argument("--bucket-days", type=float, default=7.0, help="arrival bucket width in days")

    return parser


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
            raise ValidationError(f"unknown product {args.product!r}")
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


def _model_payloads(model: str, linear, sqrt, key: str, score) -> dict:
    """An object per model ``model`` selects, made on demand, with ``score(predict)`` at ``key``."""
    from . import sizing

    payload = {}
    if model in ("linear", "both"):
        line = linear()
        payload["linear"] = {"intercept": line.intercept, "slope": line.slope,
                             key: score(lambda uf: sizing.linear_estimate(uf, line))}
    if model in ("sqrt", "both"):
        root = sqrt()
        payload["sqrt"] = {"coefficient": root.coefficient,
                           key: score(lambda uf: sizing.sqrt_estimate(uf, root))}
    return payload


def _cmd_estimate(args: argparse.Namespace) -> int:
    from . import sizing

    if (args.uf is None) == (args.fit is None):
        raise ValidationError("estimate needs exactly one of --uf or --fit")
    if args.uf is not None:
        payload: dict = {"uf": args.uf} | _model_payloads(
            args.model, lambda: sizing.DEFAULT_LINEAR_MODEL, lambda: sizing.DEFAULT_SQRT_MODEL,
            "estimate", lambda predict: predict(args.uf),
        )
    else:
        points = sizing.parse_scatter(_read_text(args.fit))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            payload = {"points": len(points)} | _model_payloads(
                args.model, lambda: sizing.fit_linear(points), lambda: sizing.fit_sqrt(points),
                "rss", lambda predict: sizing.residual_sum_of_squares(points, predict),
            )
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
            raise ValidationError(f"unknown product {args.product!r}")
        records = [r for r in records if r.product_id == args.product]
        scope = args.product
    if not records:
        raise ValidationError("no defect records to chart")
    counts = ledger.arrival_series(records, width)

    fitted = fit_payload = fit_note = None
    if len(counts) >= 3:
        try:
            fit = rayleigh.fit_arrival(counts)
            fitted = rayleigh.expected_bucket_counts(fit.k_total, fit.sigma, len(counts))
            fit_payload = _fit_payload(fit, args.bucket_days)
        except (NonConvergenceError, ValidationError) as exc:
            fit_note = str(exc)
    else:
        fit_note = "too few buckets for an arrival fit (need 3)"

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


_HANDLERS = {
    "ingest": _cmd_ingest,
    "metrics": _cmd_metrics,
    "forecast": _cmd_forecast,
    "estimate": _cmd_estimate,
    "fit-arrival": _cmd_fit_arrival,
    "report": _cmd_report,
}


def _dispatch(argv: Sequence[str] | None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
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

    The cyclic garbage collector is paused while the command runs and
    left as the caller had it.  A command allocates tens of thousands of
    CSV rows, JSON dicts and records, none of which can form a cycle, so
    each collection walks them all and frees nothing.  The few hundred
    argparse objects that do form cycles are the same for any input, and
    are left for the collector's next run.  The caller owns the
    collector; ``main`` is the caller that leaves it off.
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
    command leave behind.  Outputs are written and closed before ``run``
    returns, and the interpreter still flushes stdio and runs atexit
    handlers.
    """
    gc.disable()
    code = run(sys.argv[1:])
    gc.freeze()
    sys.exit(code)
