"""Quality metrics: density, injection rate, removal efficiency and rate."""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_record, with_fields
from defectlab import (
    MetricsSummary,
    ProductProfile,
    ValidationError,
    defect_density,
    removal_efficiency,
    removal_rate,
    summaries_to_csv,
    summaries_to_json,
    summarize,
)
from defectlab.metrics import DEFAULT_RATE_WINDOW, INJECTION_RATE_BASIS, summary_to_dict


class TestDefectDensity:
    def test_per_unique_formula(self):
        assert defect_density(151, 2182) == pytest.approx(0.0692, abs=5e-5)

    def test_zero_defects_is_zero_density(self):
        assert defect_density(0, 2182) == 0.0

    def test_per_kloc(self):
        assert defect_density(45, 3.0) == 15.0

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValidationError, match="size must be positive"):
            defect_density(45, 0.0)

    def test_negative_defects_rejected(self):
        with pytest.raises(ValidationError, match=">= 0"):
            defect_density(-1, 10.0)

    def test_overflowing_quotient_rejected(self):
        # A subnormal size passes the positivity check, but one defect
        # over it is beyond float range.
        with pytest.raises(ValidationError) as caught:
            defect_density(1, 1e-310)
        assert str(caught.value) == "density of 1 over a size of 1e-310 overflows"


class TestInjectionRate:
    """The injection rate a summary reports: recorded defects per unique formula."""

    @staticmethod
    def _rate(defects: int, formulas: int) -> float | None:
        profile = ProductProfile(product_id="m1", unique_formulas=formulas)
        records = [make_record(rid=f"d{i}", found_offset_h=i) for i in range(defects)]
        return summarize(records, profile).injection_rate

    def test_average_audited_model(self):
        assert self._rate(151, 2182) == pytest.approx(0.0692, abs=5e-5)

    def test_one_in_five(self):
        assert self._rate(20, 100) == 0.20


class TestRemovalEfficiency:
    def test_three_quarters(self):
        assert removal_efficiency(75, 100) == 0.75

    def test_none_removed(self):
        assert removal_efficiency(0, 40) == 0.0

    def test_all_removed(self):
        assert removal_efficiency(40, 40) == 1.0

    def test_removed_beyond_present_rejected(self):
        with pytest.raises(ValidationError, match="exceeds total_present"):
            removal_efficiency(41, 40)

    @pytest.mark.parametrize(("removed", "total", "message"), [
        (6, 5, "removed_by_process 6 exceeds total_present 5"),
        (1, 0, "total_present must be positive, got 0"),
        (-1, 5, "removed_by_process must be >= 0, got -1"),
    ])
    def test_rejection_message(self, removed, total, message):
        with pytest.raises(ValidationError) as caught:
            removal_efficiency(removed, total)
        assert str(caught.value) == message

    @given(st.integers(1, 1000), st.integers(1, 1000), st.integers(0, 1000))
    def test_monotone_in_removed_count(self, total, extra, removed):
        removed = min(removed, total)
        low = removal_efficiency(removed, total + extra)
        high = removal_efficiency(removed, total)
        assert 0.0 <= low <= high <= 1.0


class TestRemovalRate:
    def test_seven_fixes_in_seven_days_is_one_per_day(self):
        records = [
            make_record(rid=f"d{i}", found_offset_h=0, fixed_offset_h=24 * i + 1)
            for i in range(7)
        ]
        assert removal_rate(records, timedelta(days=7)) == 1.0

    def test_fixes_older_than_window_give_none(self):
        records = [
            make_record(rid="old", found_offset_h=0, fixed_offset_h=1),
            # Found-only records push the observation horizon far past the fix.
            make_record(rid="recent", found_offset_h=24 * 30),
        ]
        assert removal_rate(records, timedelta(days=7)) is None
        # Without it, the horizon is the fix itself.
        assert removal_rate(records[:1], timedelta(days=7)) == pytest.approx(1 / 7)

    def test_no_fixed_records_give_none(self):
        records = [make_record(rid="d1"), make_record(rid="d2", found_offset_h=5)]
        assert removal_rate(records, timedelta(days=7)) is None

    def test_window_is_half_open(self):
        records = [make_record(rid="d1", found_offset_h=0, fixed_offset_h=0.0)]
        # A found-only record puts the horizon exactly one window after
        # the fix, which is then excluded...
        horizon = make_record(rid="d2", found_offset_h=24 * 7)
        assert removal_rate([*records, horizon], timedelta(days=7)) is None
        # ...but a fix exactly at the horizon counts.
        assert removal_rate(records, timedelta(days=7)) == pytest.approx(1 / 7)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValidationError, match="window must be positive"):
            removal_rate([], timedelta(0))

    def test_window_reaching_before_year_one(self):
        # The window would start on 0000-12-26, which no datetime holds.
        found = datetime(1, 1, 1, tzinfo=timezone.utc)
        record = with_fields(make_record(fixed_offset_h=0), found_at=found,
                             fixed_at=found + timedelta(days=1))
        assert removal_rate([record], timedelta(days=7)) == pytest.approx(1 / 7)

    @given(
        st.lists(
            st.tuples(st.floats(0, 2000), st.floats(0, 2000)),
            min_size=1,
            max_size=40,
        ),
        st.integers(1, 60),
    )
    def test_rate_matches_brute_force_recount(self, found_and_delay, window_days):
        records = [
            make_record(rid=f"d{i}", found_offset_h=f, fixed_offset_h=f + delay)
            for i, (f, delay) in enumerate(found_and_delay)
        ]
        window = timedelta(days=window_days)
        horizon = max(r.fixed_at for r in records)
        start = horizon - window
        expected = sum(1 for r in records if start < r.fixed_at <= horizon)
        rate = removal_rate(records, window)
        assert expected >= 1  # the latest fix always lies inside its own window
        assert rate == pytest.approx(expected / window_days)


class TestSummarize:
    def test_average_audited_model(self, audited_profile):
        records = [
            make_record(rid=f"d{i}", fixed_offset_h=(i + 1.0 if i < 100 else None))
            for i in range(151)
        ]
        summary = summarize(records, audited_profile)
        assert summary.defect_count == 151
        assert summary.density_per_uf == pytest.approx(151 / 2182)
        assert summary.injection_rate == pytest.approx(0.0692, abs=5e-5)
        assert summary.removal_efficiency == pytest.approx(100 / 151)
        assert summary.density_per_kloc is None  # profile has no KLOC size

    def test_injection_rate_equals_density_per_uf(self, audited_profile):
        records = [make_record(rid=f"d{i}") for i in range(17)]
        summary = summarize(records, audited_profile)
        assert summary.injection_rate == summary.density_per_uf

    def test_more_defects_than_formulas_leaves_the_rate_absent(self):
        profile = ProductProfile(product_id="m1", unique_formulas=2)
        summary = summarize([make_record(rid=f"d{i}") for i in range(3)], profile)
        assert summary.density_per_uf == 1.5
        assert summary.injection_rate is None
        (entry,) = json.loads(summaries_to_json([summary]))
        assert entry["injection_rate"] is None
        assert "injection_rate_basis" not in entry
        (row,) = csv.DictReader(io.StringIO(summaries_to_csv([summary])))
        assert row["injection_rate"] == ""
        assert row["density_per_uf"] == "1.5"

    def test_one_defect_per_formula_is_still_a_rate(self):
        profile = ProductProfile(product_id="m1", unique_formulas=2)
        summary = summarize([make_record(rid=f"d{i}") for i in range(2)], profile)
        assert summary.injection_rate == summary.density_per_uf == 1.0

    def test_empty_records_give_absent_metrics(self, audited_profile):
        summary = summarize([], audited_profile)
        assert summary.defect_count == 0
        assert summary.density_per_uf is None
        assert summary.injection_rate is None
        assert summary.removal_efficiency is None
        assert summary.removal_rate is None

    def test_foreign_records_rejected_by_id(self, audited_profile):
        records = [make_record(rid="d1"), make_record(rid="alien", product_id="m2"),
                   make_record(rid="b", product_id="m3")]
        with pytest.raises(ValidationError) as info:
            summarize(records, audited_profile)
        assert str(info.value) == "records do not belong to product 'm1': 'alien', 'b'"

    def test_order_invariant(self, audited_profile):
        records = [
            make_record(rid=f"d{i}", found_offset_h=i, fixed_offset_h=i + 2.0)
            for i in range(9)
        ]
        assert summarize(records, audited_profile) == summarize(
            list(reversed(records)), audited_profile
        )

    def test_each_metric_matches_its_standalone_function(self):
        profile = ProductProfile(product_id="m1", unique_formulas=500, kloc=2.0)
        records = [
            make_record(rid=f"d{i}", found_offset_h=i, fixed_offset_h=(i + 1.0 if i % 2 else None))
            for i in range(10)
        ]
        summary = summarize(records, profile)
        assert summary.density_per_uf == defect_density(10, 500)
        assert summary.density_per_kloc == defect_density(10, 2.0)
        assert summary.injection_rate == summary.density_per_uf
        assert summary.removal_efficiency == removal_efficiency(5, 10)
        assert summary.removal_rate == removal_rate(records, DEFAULT_RATE_WINDOW)


class TestSummaryTypes:
    def test_fraction_above_one_rejected(self):
        with pytest.raises(ValidationError, match="within \\[0, 1\\]"):
            MetricsSummary(product_id="m1", defect_count=1, removal_efficiency=1.2)

    def test_negative_density_rejected(self):
        with pytest.raises(ValidationError) as info:
            MetricsSummary(product_id="m1", defect_count=1, density_per_uf=-0.1)
        assert str(info.value) == (
            "invalid metrics summary for 'm1'\n  density_per_uf must be >= 0, got -0.1"
        )


class TestSerialization:
    def _summary(self):
        return MetricsSummary(
            product_id="m1",
            defect_count=3,
            density_per_uf=0.03,
            injection_rate=0.03,
            removal_efficiency=1.0,
        )

    def test_dict_field_order_is_fixed(self):
        out = summary_to_dict(self._summary())
        fields = MetricsSummary.__match_args__
        assert tuple(out)[: len(fields)] == fields
        assert out["injection_rate_basis"] == INJECTION_RATE_BASIS

    def test_basis_absent_when_rate_is_absent(self):
        out = summary_to_dict(MetricsSummary(product_id="m1", defect_count=0))
        assert "injection_rate_basis" not in out

    def test_json_is_an_array_with_trailing_newline(self):
        text = summaries_to_json([self._summary()])
        assert text.endswith("\n")
        (entry,) = json.loads(text)
        assert entry["product_id"] == "m1"
        assert entry["removal_rate"] is None

    def test_csv_blank_cells_for_absent_metrics(self):
        text = summaries_to_csv([self._summary()])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == list(MetricsSummary.__match_args__)
        row = dict(zip(rows[0], rows[1]))
        assert row["removal_rate"] == ""
        assert row["density_per_kloc"] == ""
        assert float(row["removal_efficiency"]) == 1.0
