"""Shared builders for the test suite, and the writers that serve as
round-trip oracles for the defect-log and product-registry parsers."""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable
from datetime import datetime, timedelta, timezone

import pytest

from defectlab import DefectRecord, ProductProfile
from defectlab.ledger import DEFECT_CSV_COLUMNS

EPOCH = datetime(2004, 3, 1, tzinfo=timezone.utc)


def make_record(
    rid: str = "d1",
    product_id: str = "m1",
    phase_injected: str = "build",
    phase_found: str = "review",
    found_offset_h: float = 0.0,
    fixed_offset_h: float | None = None,
    severity: int = 2,
    fix_changes: int | None = None,
) -> DefectRecord:
    """One defect record with offsets in hours from a fixed epoch."""
    fixed = None if fixed_offset_h is None else EPOCH + timedelta(hours=fixed_offset_h)
    return DefectRecord(
        id=rid,
        product_id=product_id,
        phase_injected=phase_injected,
        phase_found=phase_found,
        found_at=EPOCH + timedelta(hours=found_offset_h),
        fixed_at=fixed,
        severity=severity,
        status="fixed" if fixed is not None else "open",
        fix_changes=fix_changes,
    )


def with_fields(record: DefectRecord, **changes: object) -> DefectRecord:
    """The record with some fields changed, built by the constructor,
    which validates the result."""
    return DefectRecord(**(record._asdict() | changes))


def _csv_cell(value: object) -> object:
    """A record field as its defect-log cell, written without the ledger's
    own timestamp formatting, which the round trip tests."""
    if value is None:
        return ""
    if isinstance(value, datetime):
        return value.isoformat().replace("+00:00", "Z")
    return value


def serialize_defect_log(records: Iterable[DefectRecord]) -> str:
    """Records as defect-log CSV; ``parse_defect_log`` reads back equal records."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(DEFECT_CSV_COLUMNS)
    for record in records:
        writer.writerow([_csv_cell(getattr(record, column)) for column in DEFECT_CSV_COLUMNS])
    return out.getvalue()


def serialize_product_registry(profiles: Iterable[ProductProfile]) -> str:
    """Profiles as a product registry JSON array, keys in field order;
    ``parse_product_registry`` reads back equal profiles."""
    return json.dumps([p._asdict() for p in profiles], indent=2) + "\n"


@pytest.fixture
def audited_profile() -> ProductProfile:
    return ProductProfile(
        product_id="m1", unique_formulas=2182, description="average audited model"
    )
