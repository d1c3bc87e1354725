"""Quality metrics over defect ledgers.

Defect density, injection rate, removal efficiency, and removal rate,
plus a per-product summary that aggregates them.  Metrics that cannot
be computed from the available inputs are reported as absent, never as
zero: zero is a quality claim, absence is honesty.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Iterable, Sequence
from datetime import timedelta

from .errors import (
    ValidationError, Value, count_problem, fraction_problem, real_problem, refuse, show_int,
    show_value,
)
from .ledger import DefectRecord, ProductProfile

#: How the injection rate is estimated when true injected counts are
#: unknown (they almost always are; you can only estimate them).
#: Recorded in JSON output so consumers know what the number means.
INJECTION_RATE_BASIS = (
    "recorded defects per unique formula; residual undiscovered defects assumed zero"
)

#: Trailing window for the removal rate in a summary.
DEFAULT_RATE_WINDOW = timedelta(days=7)


class MetricsSummary(Value):
    """Computed quality metrics for one product.

    Optional fields are None when their inputs were absent (for
    example no KLOC size on the profile, or no fixed records).
    """

    product_id: str
    defect_count: int
    density_per_uf: float | None = None
    density_per_kloc: float | None = None
    injection_rate: float | None = None
    removal_efficiency: float | None = None
    removal_rate: float | None = None

    def __post_init__(self) -> None:
        values = self._asdict()
        refuse(
            f"invalid metrics summary for {show_value(self.product_id)}",
            count_problem("defect_count", self.defect_count),
            *(fraction_problem(name, values[name])
              for name in ("injection_rate", "removal_efficiency") if values[name] is not None),
            *(real_problem(name, values[name], zero=True)
              for name in ("density_per_uf", "density_per_kloc", "removal_rate")
              if values[name] is not None),
        )


def defect_density(defects: int, size: float) -> float:
    """Defects per size unit (unique formulas, KLOC, or function points)."""
    # An integer past MAX_COUNT may not convert to a float at all.
    if problem := count_problem("defects", defects):
        raise ValidationError(problem)
    if problem := (count_problem("size", size) if isinstance(size, int) and size > 0
                   else real_problem("size", size)):
        raise ValidationError(problem)
    density = defects / size
    if not math.isfinite(density):
        raise ValidationError(f"density of {show_int(defects)} over a size of {size} overflows")
    return density


def removal_efficiency(removed_by_process: int, total_present: int) -> float:
    """Fraction of the defects present that a find-and-fix pass removed."""
    if problem := real_problem("total_present", total_present):
        raise ValidationError(problem)
    if removed_by_process > total_present:
        raise ValidationError(
            f"removed_by_process {show_int(removed_by_process)} exceeds "
            f"total_present {show_int(total_present)}"
        )
    if problem := count_problem("removed_by_process", removed_by_process):
        raise ValidationError(problem)
    return removed_by_process / total_present


def removal_rate(records: Sequence[DefectRecord], window: timedelta) -> float | None:
    """Defects fixed per day over a trailing window.

    The window ends at the latest timestamp anywhere in the records (the
    ledger's observation horizon), and is half-open: a fix exactly at
    the horizon counts, one exactly ``window`` before it does not.
    Returns None when no fixes fall inside the window; a rate of zero is
    never fabricated.
    """
    if window <= timedelta(0):
        raise ValidationError(f"window must be positive, got {window}")
    fix_times = [r.fixed_at for r in records if r.fixed_at is not None]
    if not fix_times:
        return None
    horizon = max(max(fix_times), max(r.found_at for r in records))
    # Every fix is at or before the horizon.  Comparing distances never
    # builds the window's start, which may lie before year 1.
    fixes_in_window = sum(1 for t in fix_times if horizon - t < window)
    if fixes_in_window == 0:
        return None
    return fixes_in_window / (window / timedelta(days=1))


def summarize(records: Sequence[DefectRecord], profile: ProductProfile) -> MetricsSummary:
    """Aggregate the single metrics over one product's records.

    With no records at all, every optional metric is absent: nothing
    can be claimed about a product that was never measured.  The
    injection rate is the density per unique formula read as a rate, so
    it is absent where recorded defects outnumber unique formulas.
    """
    strangers = sorted({r.id for r in records if r.product_id != profile.product_id})
    if strangers:
        raise ValidationError(
            f"records do not belong to product {show_value(profile.product_id)}: "
            + ", ".join(map(show_value, strangers))
        )
    count = len(records)
    if count == 0:
        return MetricsSummary(product_id=profile.product_id, defect_count=0)

    density_uf = None
    rate_injected = None
    if profile.unique_formulas is not None:
        density_uf = defect_density(count, profile.unique_formulas)
        rate_injected = density_uf if density_uf <= 1.0 else None
    density_kloc = None
    if profile.kloc is not None:
        density_kloc = defect_density(count, profile.kloc)
    fixed = sum(1 for r in records if r.status == "fixed")
    return MetricsSummary(
        product_id=profile.product_id,
        defect_count=count,
        density_per_uf=density_uf,
        density_per_kloc=density_kloc,
        injection_rate=rate_injected,
        removal_efficiency=removal_efficiency(fixed, count),
        removal_rate=removal_rate(records, DEFAULT_RATE_WINDOW),
    )


def summary_to_dict(summary: MetricsSummary) -> dict:
    """Summary as a dict in fixed field order, plus estimator metadata."""
    out = summary._asdict()
    if summary.injection_rate is not None:
        out["injection_rate_basis"] = INJECTION_RATE_BASIS
    return out


def summaries_to_json(summaries: Iterable[MetricsSummary]) -> str:
    return json.dumps([summary_to_dict(s) for s in summaries], indent=2) + "\n"


def summaries_to_csv(summaries: Iterable[MetricsSummary]) -> str:
    """CSV with one row per product; absent metrics are empty cells."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(MetricsSummary.__match_args__)
    for s in summaries:
        writer.writerow(["" if v is None else v for v in s._values()])
    return out.getvalue()
