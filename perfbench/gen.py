"""Seeded input generator for the defectlab benchmark.

Writes every file a workload's commands read, plus ``expect.json``
with what the output checks need to know about them.  Uses the stdlib
only and never imports defectlab: the program sees nothing but these
files.  The same seed and row count give byte-identical files.

    python3 perfbench/gen.py --seed 7 --rows 1000 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

PRODUCTS = 50
ORIGIN = datetime(2004, 1, 5, tzinfo=timezone.utc)
HEADER = "id,product_id,phase_injected,phase_found,found_at,fixed_at,severity,status,fix_changes"
PHASES_INJECTED = ("requirements", "design", "build", "review", "test", "unknown")
PHASES_FOUND = ("design", "build", "review", "test", "use")
#: Share of rows made invalid in the ``defects_invalid.csv`` copy.
BAD_ROW_SHARE = 0.01
#: The bad-row kinds, planted in turn; each draws at least one
#: diagnostic for its row from a correct ingest.
BAD_ROW_KINDS = ("timestamp", "phase", "severity", "status")
SERIES_BUCKETS = 365
SCATTER_POINTS = 30
#: Arrival buckets of ``report``'s default 7-day width.
REPORT_BUCKET_DAYS = 7


_DAYS: dict[int, str] = {}


def _stamp(seconds: int) -> str:
    """ISO 8601 UTC text of ORIGIN plus ``seconds``."""
    day, rest = divmod(seconds, 86400)
    date = _DAYS.get(day)
    if date is None:
        date = _DAYS[day] = (ORIGIN + timedelta(days=day)).strftime("%Y-%m-%d")
    return f"{date}T{rest // 3600:02d}:{rest // 60 % 60:02d}:{rest % 60:02d}Z"


def _rayleigh(rng: random.Random, sigma: float) -> float:
    return sigma * math.sqrt(-2.0 * math.log(1.0 - rng.random()))


def defect_rows(rng: random.Random, rows: int) -> tuple[list[list[str]], list[int]]:
    """CSV fields of ``rows`` valid defects over PRODUCTS products.

    Found-times arrive in a Rayleigh shape from ORIGIN and are also
    returned in seconds; a row's ``fixed_at`` is present exactly when
    its status is ``fixed``.
    """
    sigma_days = rng.uniform(40.0, 80.0)
    out = []
    found_seconds = []
    for i in range(rows):
        found = int(_rayleigh(rng, sigma_days) * 86400.0)
        found_seconds.append(found)
        draw = rng.random()
        status = "fixed" if draw < 0.6 else ("open" if draw < 0.9 else "deferred")
        fixed = _stamp(found + rng.randint(3600, 30 * 86400)) if status == "fixed" else ""
        fix_changes = str(rng.randint(0, 20)) if rng.random() < 0.7 else ""
        out.append([
            f"D{i + 1:06d}",
            f"p{rng.randrange(PRODUCTS) + 1:02d}",
            rng.choice(PHASES_INJECTED),
            rng.choice(PHASES_FOUND),
            _stamp(found),
            fixed,
            str(rng.randint(1, 4)),
            status,
            fix_changes,
        ])
    return out, found_seconds


def plant_bad_rows(rng: random.Random, rows: list[list[str]]) -> tuple[list[list[str]], list[int]]:
    """Copy of ``rows`` with BAD_ROW_SHARE of them made invalid.

    Returns the copy and the 1-based data-row numbers of the planted
    rows, the numbering a defect-log diagnostic uses.
    """
    count = max(1, round(len(rows) * BAD_ROW_SHARE))
    planted = sorted(rng.sample(range(1, len(rows) + 1), count))
    bad = [list(row) for row in rows]
    for n, row_no in enumerate(planted):
        row = bad[row_no - 1]
        kind = BAD_ROW_KINDS[n % len(BAD_ROW_KINDS)]
        if kind == "timestamp":
            row[4] = "2004-13-45T00:00:00Z"
        elif kind == "phase":
            row[3] = "nowhere"
        elif kind == "severity":
            row[6] = "9"
        else:
            row[7] = "open" if row[7] == "fixed" else "fixed"
    return bad, planted


def product_registry(rng: random.Random, per_product: dict[str, int]) -> list[dict]:
    """Profiles sized so that no product has more defects than formulas."""
    out = []
    for n in range(PRODUCTS):
        pid = f"p{n + 1:02d}"
        out.append({
            "product_id": pid,
            "unique_formulas": per_product.get(pid, 0) * 4 + rng.randint(500, 5000),
            "kloc": round(rng.uniform(1.0, 80.0), 3),
            "function_points": None,
            "description": f"synthetic product {n + 1}",
        })
    return out


def arrival_series(rng: random.Random) -> tuple[list[int], float, int]:
    """Daily counts of k_total Rayleigh arrivals with a known sigma."""
    sigma = rng.uniform(60.0, 110.0)
    k_total = rng.randint(4000, 8000)
    counts = [0] * SERIES_BUCKETS
    for _ in range(k_total):
        bucket = int(_rayleigh(rng, sigma))
        if bucket < SERIES_BUCKETS:
            counts[bucket] += 1
    return counts, sigma, k_total


def scatter(rng: random.Random) -> list[tuple[int, int]]:
    """Points around the paper's linear model, issues = 62 + 0.0408 * uf."""
    sizes = rng.sample(range(200, 20000), SCATTER_POINTS)
    return [(uf, max(0, round(62 + 0.0408 * uf + rng.gauss(0.0, 25.0)))) for uf in sizes]


def _csv(header: str, rows: list) -> str:
    return header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


def write_inputs(out_dir: Path, seed: int, rows: int) -> dict:
    """Write the inputs for ``rows`` defect rows; return the expectations."""
    rng = random.Random(seed)
    defects, found = defect_rows(rng, rows)
    bad, planted = plant_bad_rows(rng, defects)
    per_product: dict[str, int] = {}
    for row in defects:
        per_product[row[1]] = per_product.get(row[1], 0) + 1
    products = product_registry(rng, per_product)
    counts, series_sigma, series_k = arrival_series(rng)
    points = scatter(rng)

    report_buckets = (max(found) - min(found)) // (REPORT_BUCKET_DAYS * 86400) + 1

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "defects.csv").write_text(_csv(HEADER, defects), encoding="utf-8")
    (out_dir / "defects_invalid.csv").write_text(_csv(HEADER, bad), encoding="utf-8")
    (out_dir / "products.json").write_text(json.dumps(products, indent=2) + "\n", encoding="utf-8")
    (out_dir / "series.csv").write_text(
        _csv("bucket_start,count", list(enumerate(counts))), encoding="utf-8"
    )
    (out_dir / "scatter.csv").write_text(_csv("uf,issues", points), encoding="utf-8")
    expect = {
        "seed": seed,
        "rows": rows,
        "products": PRODUCTS,
        "per_product": dict(sorted(per_product.items())),
        "planted_rows": planted,
        "report_buckets": report_buckets,
        "series_buckets": SERIES_BUCKETS,
        "series_sigma": series_sigma,
        "series_k_total": series_k,
        "scatter_points": SCATTER_POINTS,
    }
    (out_dir / "expect.json").write_text(json.dumps(expect, indent=1) + "\n", encoding="utf-8")
    return expect


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_inputs(args.out, args.seed, args.rows)


if __name__ == "__main__":
    main()
