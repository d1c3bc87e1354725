"""Shared builders for the test suite."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest

from defectlab import DefectRecord, ProductProfile

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


@pytest.fixture
def audited_profile() -> ProductProfile:
    return ProductProfile(
        product_id="m1", unique_formulas=2182, description="average audited model"
    )
