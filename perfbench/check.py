"""Output checks for the defectlab benchmark: they test meaning, not bytes.

    python3 perfbench/check.py WORKDIR

Reads ``WORKDIR/commands.json`` (one entry per command of a pass: its
key, arguments, stdout and stderr files) and ``WORKDIR/in/expect.json``
from the generator, checks the outputs each command left behind, and
prints a JSON object mapping each command key to its list of problems.
An empty list means the output is right.  The checks use independent
oracles (the generator's own counts, closed forms, least squares done
here) and never compare against stored program output, because ledger
bytes and Monte Carlo histograms may change on purpose.  Loading the
written ledger back uses the program's own ``load_ledger``, so this
runs with the package on ``PYTHONPATH``.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
import xml.etree.ElementTree as ElementTree
from pathlib import Path

#: How far a fitted Rayleigh sigma may sit from the generating one.
SIGMA_TOLERANCE = 0.05
#: Relative tolerance for a float the check recomputes exactly.
FLOAT_TOLERANCE = 1e-9
#: The sign-off threshold; the benchmark's forecasts use the default.
THRESHOLD = 0.5
STAMP = "%Y-%m-%dT%H:%M:%SZ"
_ROW = re.compile(r"^\s*row (\d+):", re.MULTILINE)


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _close(a: float, b: float, tol: float = FLOAT_TOLERANCE) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def closed_form_revisions(units: int, injection_rate: float, removal_efficiency: float,
                          threshold: float) -> int | None:
    """1 + min{k : D0 * d**k < threshold}, or None when d >= 1 never signs off.

    D0 = units * injection_rate is the initial expected defect count and
    d = 1 - removal_efficiency * (1 - injection_rate) the per-cycle decay.
    """
    d0 = units * injection_rate
    d = 1.0 - removal_efficiency * (1.0 - injection_rate)
    if d0 < threshold:
        return 1
    if d >= 1.0:
        return None
    if d <= 0.0:
        return 2
    k = max(1, math.ceil(math.log(threshold / d0) / math.log(d)))
    while d0 * d**k >= threshold:
        k += 1
    while k > 1 and d0 * d ** (k - 1) < threshold:
        k -= 1
    return 1 + k


def revisions_match(got: object, units: int, injection_rate: float, removal_efficiency: float,
                    threshold: float) -> bool:
    """Whether ``got`` is the closed-form count; a step that lands within
    rounding of the threshold may go either way."""
    want = closed_form_revisions(units, injection_rate, removal_efficiency, threshold)
    if got == want or want is None or not isinstance(got, int):
        return got == want
    d0 = units * injection_rate
    d = 1.0 - removal_efficiency * (1.0 - injection_rate)
    boundary = min(got, want) - 1
    return abs(got - want) == 1 and _close(d0 * d**boundary, threshold)


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))[1:]


def check_ingest(cmd: dict, stdout: str, stderr: str, expect: dict) -> list[str]:
    """Row and product counts reported; the ledger loads back to the CSV's records."""
    from defectlab.ledger import load_ledger

    payload = json.loads(stdout)
    problems = []
    if payload.get("defects") != expect["rows"]:
        problems.append(f"reported {payload.get('defects')} defects, expected {expect['rows']}")
    if payload.get("products") != expect["products"]:
        problems.append(f"reported {payload.get('products')} products, expected {expect['products']}")
    ledger_path = _flag(cmd["argv"], "--out")
    profiles, records = load_ledger(Path(ledger_path).read_text(encoding="utf-8"))
    if len(profiles) != expect["products"]:
        problems.append(f"ledger holds {len(profiles)} products, expected {expect['products']}")
    loaded = {
        r.id: [
            r.id, r.product_id, r.phase_injected.value, r.phase_found.value,
            r.found_at.strftime(STAMP), r.fixed_at.strftime(STAMP) if r.fixed_at else "",
            str(r.severity), r.status.value, "" if r.fix_changes is None else str(r.fix_changes),
        ]
        for r in records
    }
    source = {row[0]: row for row in _csv_rows(Path(_flag(cmd["argv"], "--defects")))}
    if len(records) != len(source):
        problems.append(f"ledger holds {len(records)} records, the CSV {len(source)}")
    missing = sorted(set(source) - set(loaded))
    changed = sorted(i for i in source if i in loaded and loaded[i] != source[i])
    if missing:
        problems.append(f"{len(missing)} records missing from the ledger, first {missing[0]}")
    if changed:
        problems.append(f"{len(changed)} records changed in the ledger, first {changed[0]}")
    return problems


def check_ingest_invalid(cmd: dict, stdout: str, stderr: str, expect: dict) -> list[str]:
    """The diagnostics name exactly the planted rows."""
    named = {int(n) for n in _ROW.findall(stderr)}
    planted = set(expect["planted_rows"])
    problems = []
    if not stderr.startswith("error:"):
        problems.append("stderr does not start with an error: line")
    if named != planted:
        problems.append(
            f"diagnostics name {len(named)} rows, {len(named - planted)} not planted; "
            f"{len(planted - named)} of {len(planted)} planted rows not named"
        )
    return problems


def check_metrics(cmd: dict, stdout: str, stderr: str, expect: dict) -> list[str]:
    """Per-product defect counts match the generator's and sum to the rows."""
    summaries = json.loads(stdout)
    counts = {s["product_id"]: s["defect_count"] for s in summaries}
    problems = []
    if sum(counts.values()) != expect["rows"]:
        problems.append(f"defect counts sum to {sum(counts.values())}, expected {expect['rows']}")
    if len(counts) != expect["products"]:
        problems.append(f"{len(counts)} products summarised, expected {expect['products']}")
    wrong = sorted(p for p, n in expect["per_product"].items() if counts.get(p) != n)
    if wrong:
        problems.append(f"{len(wrong)} products with a wrong defect count, first {wrong[0]}")
    return problems


def check_report(cmd: dict, stdout: str, stderr: str, expect: dict) -> list[str]:
    """All rows bucketed into the expected buckets, a fit, and an SVG."""
    payload = json.loads(stdout)
    problems = []
    if payload.get("defects") != expect["rows"]:
        problems.append(f"report counts {payload.get('defects')} defects, expected {expect['rows']}")
    if payload.get("buckets") != expect["report_buckets"]:
        problems.append(f"{payload.get('buckets')} buckets, expected {expect['report_buckets']}")
    fit = payload.get("fit")
    if not fit or not all(
        isinstance(fit.get(k), (int, float)) and math.isfinite(fit[k]) and fit[k] > 0
        for k in ("k_total", "sigma")
    ):
        problems.append(f"no usable fit in the report: {fit!r}")
    try:
        root = ElementTree.parse(_flag(cmd["argv"], "--svg")).getroot()
    except (OSError, ElementTree.ParseError) as exc:
        problems.append(f"SVG unreadable: {exc}")
    else:
        if not root.tag.endswith("svg"):
            problems.append(f"SVG root is {root.tag}")
    return problems


def check_forecast(cmd: dict, stdout: str, stderr: str, expect: dict) -> list[str]:
    """The revision count is the closed form; the trajectory has that length."""
    payload = json.loads(stdout)
    argv = cmd["argv"]
    units, r, e = int(_flag(argv, "--units")), float(_flag(argv, "--dir")), float(_flag(argv, "--dre"))
    problems = []
    if not revisions_match(payload.get("revisions"), units, r, e, THRESHOLD):
        problems.append(
            f"{payload.get('revisions')} revisions, closed form gives "
            f"{closed_form_revisions(units, r, e, THRESHOLD)}"
        )
    if len(payload.get("expected_defects", ())) != payload.get("revisions"):
        problems.append("trajectory length differs from the revision count")
    return problems


def check_forecast_table(cmd: dict, stdout: str, stderr: str, expect: dict) -> list[str]:
    """Every cell of the grid is the closed form at its rates."""
    payload = json.loads(stdout)
    units = int(_flag(cmd["argv"], "--units"))
    cells = payload["cells"]
    pairs = {(c["removal_efficiency"], c["injection_rate"]) for c in cells}
    axes = {(e, r) for e in payload["removal_efficiencies"] for r in payload["injection_rates"]}
    problems = []
    if not cells or pairs != axes or len(cells) != len(axes):
        problems.append(f"{len(cells)} cells do not cover the {len(axes)} axis pairs once each")
    wrong = [
        c for c in cells
        if not revisions_match(c["revisions"], units, c["injection_rate"], c["removal_efficiency"],
                               THRESHOLD)
    ]
    if wrong:
        c = wrong[0]
        problems.append(
            f"{len(wrong)} cells differ from the closed form, first e={c['removal_efficiency']} "
            f"r={c['injection_rate']}: {c['revisions']}"
        )
    return problems


def check_forecast_mc(cmd: dict, stdout: str, stderr: str, expect: dict) -> list[str]:
    """The histogram sums to the trials and agrees with the reported mean."""
    payload = json.loads(stdout)
    trials = int(_flag(cmd["argv"], "--trials"))
    histogram = {int(k): v for k, v in payload["histogram"].items()}
    problems = []
    if payload.get("trials") != trials or payload.get("seed") != int(_flag(cmd["argv"], "--seed")):
        problems.append("trials or seed not echoed")
    if sum(histogram.values()) != trials:
        problems.append(f"histogram sums to {sum(histogram.values())}, expected {trials}")
    if any(k < 1 or v < 0 for k, v in histogram.items()):
        problems.append("histogram has a revision count below 1 or a negative frequency")
    mean = sum(k * v for k, v in histogram.items()) / trials
    if not _close(mean, payload.get("mean_revisions", math.nan)):
        problems.append(f"mean_revisions {payload.get('mean_revisions')} but histogram mean {mean}")
    if not 0 <= payload.get("censored", -1) <= trials:
        problems.append(f"censored {payload.get('censored')} outside 0..{trials}")
    return problems


def check_estimate(cmd: dict, stdout: str, stderr: str, expect: dict) -> list[str]:
    """Both fits equal least squares recomputed here."""
    payload = json.loads(stdout)
    points = [(int(uf), int(issues)) for uf, issues in _csv_rows(Path(_flag(cmd["argv"], "--fit")))]
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum((x - mean_x) ** 2 for x, _ in points)
    intercept = mean_y - slope * mean_x
    coefficient = sum(y * math.sqrt(x) for x, y in points) / sum(x for x, _ in points)
    linear, root = payload.get("linear", {}), payload.get("sqrt", {})
    problems = []
    if payload.get("points") != expect["scatter_points"]:
        problems.append(f"{payload.get('points')} points, expected {expect['scatter_points']}")
    for label, got, want in (
        ("linear slope", linear.get("slope"), slope),
        ("linear intercept", linear.get("intercept"), intercept),
        ("sqrt coefficient", root.get("coefficient"), coefficient),
        ("linear rss", linear.get("rss"), sum((y - intercept - slope * x) ** 2 for x, y in points)),
        ("sqrt rss", root.get("rss"), sum((y - coefficient * math.sqrt(x)) ** 2 for x, y in points)),
    ):
        if not isinstance(got, (int, float)) or not _close(got, want, 1e-6):
            problems.append(f"{label} {got}, least squares gives {want}")
    return problems


def check_fit_arrival(cmd: dict, stdout: str, stderr: str, expect: dict) -> list[str]:
    """The fit uses every bucket and recovers the generating sigma."""
    payload = json.loads(stdout)
    problems = []
    if payload.get("buckets_used") != expect["series_buckets"]:
        problems.append(f"{payload.get('buckets_used')} buckets used, expected {expect['series_buckets']}")
    sigma = payload.get("sigma")
    if not isinstance(sigma, (int, float)) or abs(sigma / expect["series_sigma"] - 1) > SIGMA_TOLERANCE:
        problems.append(f"sigma {sigma}, generated with {expect['series_sigma']}")
    return problems


CHECKS = {
    "ingest": check_ingest,
    "ingest_invalid": check_ingest_invalid,
    "metrics": check_metrics,
    "report": check_report,
    "forecast": check_forecast,
    "forecast_table": check_forecast_table,
    "forecast_mc": check_forecast_mc,
    "forecast_mc_slow": check_forecast_mc,
    "estimate": check_estimate,
    "fit_arrival": check_fit_arrival,
}


def check_command(cmd: dict, expect: dict) -> list[str]:
    """Problems with the outputs one command left; an error in a check is one."""
    stdout = Path(cmd["stdout"]).read_text(encoding="utf-8", errors="replace")
    stderr = Path(cmd["stderr"]).read_text(encoding="utf-8", errors="replace")
    try:
        return CHECKS[cmd["key"]](cmd, stdout, stderr, expect)
    except Exception as exc:  # any malformed output is a failed check, not a crash
        return [f"output could not be checked: {type(exc).__name__}: {exc}"]


def check_all(workdir: Path) -> dict[str, list[str]]:
    commands = json.loads((workdir / "commands.json").read_text(encoding="utf-8"))
    inputs = workdir / "in"
    expect = json.loads((inputs / "expect.json").read_text(encoding="utf-8"))
    return {cmd["key"]: check_command(cmd, expect) for cmd in commands}


if __name__ == "__main__":
    print(json.dumps(check_all(Path(sys.argv[1]))))
