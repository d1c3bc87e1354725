"""Defect-log parsing, product registries, and arrival bucketing."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import pickle
import string
from datetime import datetime, timedelta, timezone, tzinfo
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    EPOCH,
    make_record,
    serialize_defect_log,
    serialize_product_registry,
    with_fields,
)
from defectlab import (
    DefectRecord,
    ProductProfile,
    ValidationError,
    arrival_series,
    dump_ledger,
    ledger,
    load_ledger,
    parse_defect_log,
    parse_product_registry,
)
from defectlab.errors import MAX_COUNT
from defectlab.ledger import (
    MAX_BUCKETS,
    PHASES,
    STATUSES,
    format_timestamp,
    parse_series,
    parse_timestamp,
)

HEADER = "id,product_id,phase_injected,phase_found,found_at,fixed_at,severity,status,fix_changes"

GOLDEN = Path(__file__).parent / "data" / "golden"


class TestTimestamps:
    def test_z_suffix_and_offset_parse_to_the_same_instant(self):
        assert parse_timestamp("2004-03-01T10:00:00Z") == parse_timestamp(
            "2004-03-01T10:00:00+00:00"
        )

    def test_naive_timestamp_rejected(self):
        with pytest.raises(ValidationError, match="UTC offset"):
            parse_timestamp("2004-03-01T10:00:00")

    def test_non_utc_offset_rejected(self):
        with pytest.raises(ValidationError, match="must be UTC"):
            parse_timestamp("2004-03-01T10:00:00+02:00")

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError, match="invalid timestamp"):
            parse_timestamp("yesterday-ish")

    @pytest.mark.parametrize("text", ["2004-03-01T10:00:00Z\x00junk", "2004-03-01T10:00:00\x00Z"])
    def test_text_holding_a_nul_rejected(self, text):
        # fromisoformat stops reading at a NUL, so it would hide what follows.
        with pytest.raises(ValidationError) as caught:
            parse_timestamp(text)
        assert str(caught.value) == f"invalid timestamp {text!r}"

    @pytest.mark.parametrize("zone", ["Z", "z", "+00:00", "-05:30"])
    def test_a_zone_after_anything_but_a_digit_rejected(self, zone):
        # fromisoformat skips one such character between the time and the zone.
        for stray in [chr(c) for c in range(128) if not chr(c).isdigit()] + ["٣"]:
            with pytest.raises(ValidationError, match="^invalid timestamp"):
                parse_timestamp(f"2004-03-01T10:00:00{stray}{zone}")

    @pytest.mark.parametrize("text", [
        "2004-03-01T10:00:00Z", "2004-03-01T10:00:00+02:00", "2004-03-01T10:00:00",
    ])
    def test_text_that_parses_as_it_stands_is_parsed_once(self, text, monkeypatch):
        calls = []

        class Counting(datetime):
            @classmethod
            def fromisoformat(cls, value):
                calls.append(value)
                return datetime.fromisoformat(value)

        monkeypatch.setattr(ledger, "datetime", Counting)
        with contextlib.suppress(ValidationError):
            parse_timestamp(text)
        assert calls == [text]

    def test_format_round_trips(self):
        stamp = datetime(2010, 6, 5, 4, 3, 2, 123456, tzinfo=timezone.utc)
        assert parse_timestamp(format_timestamp(stamp)) == stamp


class TestParseDefectLog:
    def test_header_only_gives_empty_list(self):
        assert parse_defect_log(HEADER + "\n") == []

    def test_single_fixed_row(self):
        text = (
            HEADER
            + "\nd1,m1,build,review,2004-03-01T10:00:00Z,2004-03-02T09:00:00Z,2,fixed,3\n"
        )
        (record,) = parse_defect_log(text)
        assert record.id == "d1"
        assert record.status is STATUSES["fixed"]
        assert record.phase_injected is PHASES["build"]
        assert record.fix_changes == 3
        assert record.fixed_at - record.found_at == timedelta(hours=23)

    def test_fixed_before_found_names_row_and_both_timestamps(self):
        text = (
            HEADER
            + "\nd1,m1,build,review,2004-03-01T10:00:00Z,,2,open,\n"
            + "d2,m1,build,test,2004-03-05T10:00:00Z,2004-03-04T10:00:00Z,2,fixed,\n"
        )
        with pytest.raises(ValidationError) as err:
            parse_defect_log(text)
        message = str(err.value)
        assert "row 2" in message
        assert "2004-03-05T10:00:00Z" in message
        assert "2004-03-04T10:00:00Z" in message

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="header mismatch"):
            parse_defect_log("id,product_id\nd1,m1\n")

    def test_duplicate_ids_rejected_with_row(self):
        row = "d1,m1,build,review,2004-03-01T10:00:00Z,,2,open,"
        with pytest.raises(ValidationError, match="row 2.*duplicate"):
            parse_defect_log(HEADER + f"\n{row}\n{row}\n")

    def test_unknown_enum_token_rejected(self):
        text = HEADER + "\nd1,m1,build,sideways,2004-03-01T10:00:00Z,,2,open,\n"
        with pytest.raises(ValidationError, match="unknown phase_found 'sideways'"):
            parse_defect_log(text)

    def test_phase_found_unknown_rejected(self):
        text = HEADER + "\nd1,m1,build,unknown,2004-03-01T10:00:00Z,,2,open,\n"
        with pytest.raises(ValidationError, match="phase_found may not be 'unknown'"):
            parse_defect_log(text)

    def test_status_must_match_fixed_at(self):
        fixed_no_stamp = HEADER + "\nd1,m1,build,review,2004-03-01T10:00:00Z,,2,fixed,\n"
        with pytest.raises(ValidationError, match="inconsistent"):
            parse_defect_log(fixed_no_stamp)
        open_with_stamp = (
            HEADER
            + "\nd1,m1,build,review,2004-03-01T10:00:00Z,2004-03-02T10:00:00Z,2,open,\n"
        )
        with pytest.raises(ValidationError, match="inconsistent"):
            parse_defect_log(open_with_stamp)

    def test_severity_out_of_range_rejected(self):
        text = HEADER + "\nd1,m1,build,review,2004-03-01T10:00:00Z,,9,open,\n"
        with pytest.raises(ValidationError, match="severity must be in 1..4"):
            parse_defect_log(text)

    def test_all_problems_reported_at_once(self):
        text = (
            HEADER
            + "\nd1,m1,build,review,2004-03-01T10:00:00Z,,9,open,\n"
            + "d2,m1,nowhere,review,2004-03-01T10:00:00Z,,2,open,\n"
        )
        with pytest.raises(ValidationError) as err:
            parse_defect_log(text)
        assert "row 1" in str(err.value)
        assert "row 2" in str(err.value)

    def test_blank_line_is_skipped_but_counts_toward_row_numbers(self):
        row = "d1,m1,build,review,2004-03-01T10:00:00Z,,2,open,\n"
        assert [r.id for r in parse_defect_log(HEADER + "\n\n" + row)] == ["d1"]
        bad = "d2,m1,build,review,2004-03-01T10:00:00Z,,9,open,\n"
        with pytest.raises(ValidationError) as err:
            parse_defect_log(HEADER + "\n" + row + "\n" + bad)
        assert err.value.diagnostics == ("row 3: severity must be in 1..4, got 9",)

    def test_oversized_field_is_a_validation_error(self):
        text = HEADER + "\nd1,m1,build,review,2004-03-01T10:00:00Z,,2,open," + "x" * 140_000 + "\n"
        with pytest.raises(ValidationError, match="defect log line 2: field larger"):
            parse_defect_log(text)

    def test_non_integer_fix_changes_named(self):
        text = HEADER + "\nd1,m1,build,review,2004-03-01T10:00:00Z,,2,open,lots\n"
        with pytest.raises(ValidationError, match="row 1: fix_changes must be an integer"):
            parse_defect_log(text)

    def test_integer_cell_that_does_not_convert_stops_the_row(self):
        text = HEADER + "\nd1,m1,sideways,review,2004-03-01T10:00:00Z,,high,open,\n"
        with pytest.raises(ValidationError) as err:
            parse_defect_log(text)
        assert err.value.diagnostics == ("row 1: severity must be an integer, got 'high'",)

    def test_input_order_preserved(self):
        text = (
            HEADER
            + "\nd9,m1,build,review,2004-03-02T10:00:00Z,,2,open,\n"
            + "d1,m1,build,review,2004-03-01T10:00:00Z,,2,open,\n"
        )
        assert [r.id for r in parse_defect_log(text)] == ["d9", "d1"]


_ids = st.text(alphabet=string.ascii_lowercase + string.digits + "-_", min_size=1, max_size=8)
_stamps = st.datetimes(
    min_value=datetime(2000, 1, 1), max_value=datetime(2035, 1, 1)
).map(lambda d: d.replace(tzinfo=timezone.utc))
_phases = st.sampled_from(list(PHASES))
_found_phases = st.sampled_from([p for p in PHASES if p != "unknown"])


@st.composite
def _records(draw):
    found = draw(_stamps)
    fixed = draw(
        st.none()
        | st.timedeltas(min_value=timedelta(0), max_value=timedelta(days=365)).map(
            lambda delta: found + delta
        )
    )
    return DefectRecord(
        id=draw(_ids),
        product_id=draw(_ids),
        phase_injected=draw(_phases),
        phase_found=draw(_found_phases),
        found_at=found,
        fixed_at=fixed,
        severity=draw(st.integers(1, 4)),
        status="fixed"
        if fixed is not None
        else draw(st.sampled_from(["open", "deferred"])),
        fix_changes=draw(st.none() | st.integers(0, 10**6)),
    )


class TestRoundTrip:
    @given(st.lists(_records(), max_size=10))
    def test_serialize_then_parse_is_identity(self, records):
        records = [
            with_fields(r, id=f"{r.id}-{i}") for i, r in enumerate(records)
        ]
        assert parse_defect_log(serialize_defect_log(records)) == records

    def test_fields_with_commas_survive(self):
        record = make_record(rid="d,1")
        assert parse_defect_log(serialize_defect_log([record])) == [record]

    def test_the_oracle_writes_the_golden_log_back_line_for_line(self):
        # The round trip tests the parser on the oracle's format, so that
        # format must be the one real defect logs use.
        text = (GOLDEN / "defects.csv").read_text(encoding="utf-8")
        assert serialize_defect_log(parse_defect_log(text)).splitlines() == text.splitlines()


class TestProductRegistry:
    def test_single_profile(self):
        text = '[{"product_id":"m1","unique_formulas":2182,"description":"avg model"}]'
        (profile,) = parse_product_registry(text)
        assert profile.unique_formulas == 2182
        assert profile.kloc is None

    def test_empty_array(self):
        assert parse_product_registry("[]") == []

    def test_zero_size_rejected(self):
        with pytest.raises(ValidationError, match="size must be positive"):
            parse_product_registry('[{"product_id":"m1","unique_formulas":0}]')

    def test_all_sizes_missing_rejected(self):
        with pytest.raises(ValidationError, match="at least one size"):
            parse_product_registry('[{"product_id":"m1","description":"no size"}]')

    def test_duplicate_product_id_rejected(self):
        text = (
            '[{"product_id":"m1","unique_formulas":10},'
            '{"product_id":"m1","kloc":1.5}]'
        )
        with pytest.raises(ValidationError, match="duplicate product_id"):
            parse_product_registry(text)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            parse_product_registry('[{"product_id":"m1","unique_formulas":10,"loc":3}]')

    def test_not_an_array_rejected(self):
        with pytest.raises(ValidationError, match="JSON array"):
            parse_product_registry('{"product_id":"m1"}')

    @pytest.mark.parametrize(("text", "diagnostic"), [
        ('[{"product_id":"","unique_formulas":1}]', "entry 0: product_id must be non-empty"),
        ('[{"product_id":null,"unique_formulas":1}]', "entry 0: product_id is required"),
        ("[1]", "entry 0: expected an object"),
    ], ids=["empty product_id", "null product_id", "entry not an object"])
    def test_entry_problem_named(self, text, diagnostic):
        with pytest.raises(ValidationError) as err:
            parse_product_registry(text)
        assert err.value.diagnostics == (diagnostic,)

    def test_registry_round_trip(self):
        profiles = [
            ProductProfile(product_id="m1", unique_formulas=2182),
            ProductProfile(product_id="m2", kloc=3.5, function_points=40, description="x"),
        ]
        assert parse_product_registry(serialize_product_registry(profiles)) == profiles

    def test_the_oracle_writes_the_golden_registry_back_byte_for_byte(self):
        text = (GOLDEN / "products.json").read_text(encoding="utf-8")
        assert serialize_product_registry(parse_product_registry(text)) == text

    @pytest.mark.parametrize("size", ["unique_formulas", "kloc", "function_points"])
    def test_integer_size_beyond_float_range_rejected(self, size):
        with pytest.raises(ValidationError) as err:
            ProductProfile(product_id="m", **{size: 10**400})
        assert err.value.diagnostics == (f"{size} must be <= {MAX_COUNT}, got {10**400}",)

    @pytest.mark.parametrize("size", ["unique_formulas", "kloc", "function_points"])
    def test_integer_size_past_the_digit_limit_rejected(self, size):
        # 10**5000 has more digits than str() converts by default (4300).
        with pytest.raises(ValidationError) as err:
            ProductProfile(product_id="m", **{size: 10**5000})
        assert err.value.diagnostics == (
            f"{size} must be <= {MAX_COUNT}, got an integer of 5001 digits",
        )

    def test_integer_kloc_loads_as_a_float(self):
        (profile,) = parse_product_registry('[{"product_id":"m1","kloc":3}]')
        assert type(profile.kloc) is float
        built = ProductProfile(product_id="m1", kloc=3)
        assert type(built.kloc) is float
        assert built == profile == ProductProfile(product_id="m1", kloc=3.0)

    def test_null_description_loads_as_empty(self):
        (profile,) = parse_product_registry(
            '[{"product_id":"m1","kloc":1.5,"description":null}]'
        )
        assert profile == ProductProfile(product_id="m1", kloc=1.5)

    @pytest.mark.parametrize(("fields", "problems"), [
        ({"product_id": 5}, ("product_id must be str, got int",)),
        ({"product_id": 10**5000}, ("product_id must be str, got int",)),
        ({"unique_formulas": True}, ("unique_formulas must be int or null, got bool",)),
        ({"unique_formulas": 2.5}, ("unique_formulas must be int or null, got float",)),
        ({"unique_formulas": "3"}, ("unique_formulas must be int or null, got str",)),
        ({"kloc": True}, ("kloc must be float or int or null, got bool",)),
        ({"description": None}, ("description must be str, got null",)),
        ({"kloc": "1", "function_points": 1.0}, (
            "kloc must be float or int or null, got str",
            "function_points must be int or null, got float",
        )),
    ], ids=["int id", "long int id", "bool formulas", "float formulas", "str formulas",
            "bool kloc", "null description", "two problems"])
    def test_field_types_are_exact(self, fields, problems):
        with pytest.raises(ValidationError) as err:
            ProductProfile(**{"product_id": "m1", "unique_formulas": 1, **fields})
        assert str(err.value).splitlines()[0] == "invalid product profile"
        assert err.value.diagnostics == problems

    def test_type_problems_keep_their_entry_prefix(self):
        ledger = json.dumps({"products": [{"product_id": "m1", "kloc": True}], "defects": []})
        with pytest.raises(ValidationError) as err:
            load_ledger(ledger)
        assert err.value.diagnostics == (
            "products[0]: kloc must be float or int or null, got bool",
        )


class TestArrivalSeries:
    def test_no_records_gives_empty_counts(self):
        assert arrival_series([], timedelta(days=7)) == ()

    def test_day_0_0_8_with_weekly_buckets(self):
        records = [
            make_record(rid="a", found_offset_h=0),
            make_record(rid="b", found_offset_h=0),
            make_record(rid="c", found_offset_h=8 * 24),
        ]
        assert arrival_series(records, timedelta(days=7)) == (2, 1)

    def test_bucket_count_is_capped_before_allocating(self):
        records = [make_record(rid="a"), make_record(rid="b", found_offset_h=MAX_BUCKETS - 1)]
        assert len(arrival_series(records, timedelta(hours=1))) == MAX_BUCKETS
        records.append(make_record(rid="c", found_offset_h=MAX_BUCKETS))
        with pytest.raises(ValidationError, match=f"limit of {MAX_BUCKETS}"):
            arrival_series(records, timedelta(hours=1))

    def test_zero_width_rejected(self):
        with pytest.raises(ValidationError, match="bucket_width"):
            arrival_series([], timedelta(0))

    @given(st.lists(st.integers(0, 5000), max_size=60), st.integers(1, 30))
    def test_counts_conserve_records(self, offsets_hours, width_days):
        records = [
            make_record(rid=f"d{i}", found_offset_h=h)
            for i, h in enumerate(offsets_hours)
        ]
        width = timedelta(days=width_days)
        counts = arrival_series(records, width)
        assert type(counts) is tuple
        assert sum(counts) == len(records)
        if records:
            origin = min(r.found_at for r in records)
            for k, count in enumerate(counts):
                lo = origin + k * width
                assert count == sum(1 for r in records if lo <= r.found_at < lo + width)


SERIES_HEADER = "bucket_start,count\n"


def _iso_series(width: timedelta, rows: int) -> str:
    """Rows of count 1 at UTC starts ``width`` apart, from 2004."""
    start = datetime(2004, 1, 1, tzinfo=timezone.utc)
    return "".join(f"{(start + i * width).isoformat()},1\n" for i in range(rows))


class TestParseSeries:
    @pytest.mark.parametrize(("body", "expected"), [
        ("0,5\n", ([5], None)),
        ("0,1\n999999999,2\n", ([1, 2], 999999999.0)),
        # Day offsets in 2004 round to about 2e-12 days, so a narrow bucket
        # is inferred only that closely, and here its spacing strays from
        # uniform by up to three ulps of the starts.
        (_iso_series(timedelta(milliseconds=1), 400),
         ([1] * 400, pytest.approx(1e-3 / 86400, abs=4e-12))),
        (_iso_series(timedelta(microseconds=12), 20),
         ([1] * 20, pytest.approx(12e-6 / 86400, abs=4e-12))),
    ], ids=["one row leaves the width open", "widest bucket", "1 ms ISO buckets",
            "12 us ISO buckets"])
    def test_counts_and_inferred_width(self, body, expected):
        assert parse_series(SERIES_HEADER + body) == expected

    @pytest.mark.parametrize(("body", "message"), [
        ("nan,1\n1,2\n",
         "series file failed validation\n  row 1: bucket_start must be finite, got 'nan'"),
        ("0,-1\n1,2\n", "series file failed validation\n  row 1: count must be >= 0, got -1"),
        ("", "series file has no data rows"),
        ("1,1\n1,2\n", "bucket_start values must be strictly increasing"),
        ("2,1\n1,2\n", "bucket_start values must be strictly increasing"),
        ("0,1\n1000000000,2\n", "bucket spacing of 1e+09 days is wider than 999999999 days"),
        ("0,1\n1e-9,2\n1e-7,3\n",
         "bucket spacing is not uniform: gap after row 2 is 9.9e-08 days, expected 1e-09"),
        ("2004-03-01T00:00:00Z,1\n2004-03-01T00:00:00.001Z,2\n2004-03-01T00:00:00.050Z,3\n",
         "bucket spacing is not uniform: gap after row 2 is 5.6713e-07 days, "
         "expected 1.15724e-08"),
        ("2004-03-01T00:00:00Z\x00,1\n",
         "series file failed validation\n"
         "  row 1: invalid timestamp '2004-03-01T00:00:00Z\\x00'"),
        # float and int read other digits and "_" between digits; a cell may hold neither.
        ("١,٣\n", "series file failed validation\n  row 1: invalid timestamp '١'"),
        ("1_0,3\n", "series file failed validation\n  row 1: invalid timestamp '1_0'"),
        ("1,٣\n", "series file failed validation\n  row 1: count must be an integer, got '٣'"),
    ], ids=["non-finite start", "negative count", "no data rows", "repeated start",
            "decreasing starts", "wider than a timedelta", "uneven sub-day offsets",
            "uneven millisecond stamps", "start ending in a NUL", "Arabic-Indic start",
            "underscored start", "Arabic-Indic count"])
    def test_rejected(self, body, message):
        with pytest.raises(ValidationError) as caught:
            parse_series(SERIES_HEADER + body)
        assert str(caught.value) == message


class TestLedgerDocument:
    def test_round_trip(self):
        profiles = [ProductProfile(product_id="m1", unique_formulas=100)]
        records = [make_record(rid="d1"), make_record(rid="d2", fixed_offset_h=5)]
        loaded_profiles, loaded_records = load_ledger(dump_ledger(profiles, records))
        assert loaded_profiles == profiles
        assert loaded_records == records

    def test_record_for_unknown_product_rejected(self):
        profiles = [ProductProfile(product_id="m1", unique_formulas=100)]
        records = [make_record(rid="d1", product_id="ghost")]
        with pytest.raises(ValidationError, match="unknown product 'ghost'"):
            dump_ledger(profiles, records)

    def test_duplicate_record_ids_rejected(self):
        profiles = [ProductProfile(product_id="m1", unique_formulas=100)]
        records = [make_record(rid="d1"), make_record(rid="d1", found_offset_h=1)]
        with pytest.raises(ValidationError, match="duplicate defect id"):
            dump_ledger(profiles, records)

    def _ledger(self, product: dict, defect: dict) -> str:
        return json.dumps({"products": [product], "defects": [defect]})

    def _entries(self):
        profiles = [ProductProfile(product_id="m1", unique_formulas=100)]
        document = json.loads(dump_ledger(profiles, [make_record(rid="d1", fixed_offset_h=5)]))
        return document["products"][0], document["defects"][0]

    def test_product_with_unknown_key_rejected(self):
        product, defect = self._entries()
        with pytest.raises(ValidationError, match=r"products\[0\]: unknown keys loc"):
            load_ledger(self._ledger(product | {"loc": 3}, defect))

    def test_defect_with_unknown_key_rejected(self):
        product, defect = self._entries()
        with pytest.raises(ValidationError, match=r"defects\[0\]: unknown keys colour"):
            load_ledger(self._ledger(product, defect | {"colour": "red"}))

    def test_defect_fields_are_type_checked(self):
        product, defect = self._entries()
        for key, value, message in (
            ("fixed_at", 5, "fixed_at must be a string or null, got 5"),
            ("severity", None, "severity must be int, got null"),
            ("found_at", None, "found_at must be a string, got None"),
            ("fix_changes", True, "fix_changes must be int or null, got bool"),
        ):
            with pytest.raises(ValidationError) as err:
                load_ledger(self._ledger(product, defect | {key: value}))
            assert err.value.diagnostics == (f"defects[0]: {message}",)

    def test_defect_for_unregistered_product_rejected(self):
        product, defect = self._entries()
        with pytest.raises(ValidationError, match=r"defects\[0\]: .*unknown product 'ghost'"):
            load_ledger(self._ledger(product, defect | {"product_id": "ghost"}))

    def test_csv_row_and_ledger_object_decode_alike(self):
        row = "d1,m1,build,review,2004-03-01T10:00:00Z,2004-03-01T15:00:00Z,2,fixed,4"
        (record,) = parse_defect_log(HEADER + "\n" + row + "\n")
        product, _ = self._entries()
        defect = dict(zip(HEADER.split(","), row.split(",")), severity=2, fix_changes=4)
        assert load_ledger(self._ledger(product, defect))[1] == [record]

    def test_malformed_document_rejected(self):
        with pytest.raises(ValidationError, match="'products' and 'defects'"):
            load_ledger('{"products": []}')

    @pytest.mark.parametrize(("text", "message"), [
        ('{"products": [], "defects": [1]}',
         "ledger failed validation\n  defects[0]: expected an object"),
        ('{"products": {}, "defects": []}', "ledger 'products' and 'defects' must be arrays"),
        ('{"products": [}',
         "ledger is not valid JSON: Expecting value: line 1 column 15 (char 14)"),
    ], ids=["defect not an object", "products not an array", "invalid JSON"])
    def test_document_problem_named(self, text, message):
        with pytest.raises(ValidationError) as caught:
            load_ledger(text)
        assert str(caught.value) == message


class _NoOffset(tzinfo):
    """A zone that gives no offset, so a stamp in it is as naive as one without."""

    def utcoffset(self, dt):
        return None


class TestDefectRecordContract:
    """The frozen, slotted value contract that callers rely on."""

    FIELDS = ("d1", "m1", "build", "review", EPOCH, None, 2, "open", 3)

    def test_positional_keyword_and_default_construction_agree(self):
        names = DefectRecord.__match_args__
        positional = DefectRecord(*self.FIELDS)
        keyword = DefectRecord(**dict(zip(names, self.FIELDS)))
        assert positional == keyword
        assert [getattr(positional, name) for name in names] == list(self.FIELDS)
        assert DefectRecord(*self.FIELDS[:-1]).fix_changes is None

    def test_construction_rejects_too_few_or_unknown_arguments(self):
        with pytest.raises(TypeError):
            DefectRecord(*self.FIELDS[:-2])
        with pytest.raises(TypeError):
            DefectRecord(*self.FIELDS, colour="red")

    def test_assignment_and_deletion_raise(self):
        record = DefectRecord(*self.FIELDS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.severity = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            del record.id
        assert record.severity == 2

    def test_assigning_a_name_that_is_not_a_field_raises_the_frozen_error(self):
        record = DefectRecord(*self.FIELDS)
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'colour'"):
            record.colour = 1
        assert not hasattr(record, "colour")

    def test_deleting_a_name_that_is_not_a_field_raises_the_frozen_error(self):
        record = DefectRecord(*self.FIELDS)
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'colour'"):
            del record.colour

    def test_replace_validates(self):
        # Construction with a changed field validates.
        record = DefectRecord(*self.FIELDS)
        assert with_fields(record, severity=4).severity == 4
        with pytest.raises(ValidationError, match="severity must be in 1..4, got 9"):
            with_fields(record, severity=9)

    @pytest.mark.parametrize("field", ["found_at", "fixed_at"])
    @pytest.mark.parametrize("zone", [None, timezone(timedelta(hours=2)), _NoOffset()],
                             ids=["naive", "+02:00", "no offset"])
    def test_timestamps_must_be_utc(self, field, zone):
        record = make_record(fixed_offset_h=5)
        stamp = getattr(record, field).replace(tzinfo=zone)
        with pytest.raises(ValidationError) as caught:
            with_fields(record, **{field: stamp})
        assert str(caught.value) == f"invalid defect record 'd1'\n  {field} must be a UTC timestamp"

    @pytest.mark.parametrize("field", ["found_at", "fixed_at"])
    def test_a_zero_offset_zone_is_kept_as_given(self, field):
        record = make_record(fixed_offset_h=5)
        zone = timezone(timedelta(0), "UTC")
        stamp = getattr(record, field).replace(tzinfo=zone)
        assert getattr(with_fields(record, **{field: stamp}), field).tzinfo is zone

    def test_phases_and_statuses_are_strings(self):
        assert list(PHASES) == [
            "requirements", "design", "build", "review", "test", "use", "unknown"
        ]
        assert list(STATUSES) == ["open", "fixed", "deferred"]
        record = make_record(phase_injected="design", phase_found="test", fixed_offset_h=5)
        assert (record.phase_injected, record.phase_found, record.status) == (
            "design", "test", "fixed"
        )
        # The record holds the module's terms, whose value is the plain string.
        assert record.phase_injected is PHASES["design"] and record.status is STATUSES["fixed"]
        assert type(record.status.value) is str and record.status.value == "fixed"
        assert with_fields(record, status="".join(["fix", "ed"])).status is STATUSES["fixed"]
        profiles = [ProductProfile(product_id="m1", unique_formulas=100)]
        (entry,) = json.loads(dump_ledger(profiles, [record]))["defects"]
        assert (entry["phase_injected"], entry["phase_found"], entry["status"]) == (
            "design", "test", "fixed"
        )

    @pytest.mark.parametrize(("changes", "problems"), [
        # Built at run time, so that the checks must go by value.
        ({"phase_found": "".join(["unk", "nown"])}, ["phase_found may not be 'unknown'"]),
        ({"phase_injected": "bogus"}, ["unknown phase_injected 'bogus'"]),
        ({"phase_found": "Review"}, ["unknown phase_found 'Review'"]),
        ({"status": "lost"}, ["unknown status 'lost'"]),
        ({"status": "".join(["op", "en"])},
         ["status 'open' is inconsistent with fixed_at present"]),
        ({"status": "".join(["fix", "ed"]), "fixed_at": None},
         ["status 'fixed' is inconsistent with fixed_at absent"]),
    ], ids=["found unknown", "injected bogus", "found Review", "status lost", "open but fixed",
            "fixed but open"])
    def test_vocabulary_is_checked(self, changes, problems):
        with pytest.raises(ValidationError) as caught:
            with_fields(make_record(fixed_offset_h=5), **changes)
        assert caught.value.diagnostics == tuple(problems)

    @pytest.mark.parametrize(("field", "value", "problem"), [
        ("severity", True, "severity must be int, got bool"),
        ("severity", "3", "severity must be int, got str"),
        ("fix_changes", 1.5, "fix_changes must be int or null, got float"),
        ("id", 7, "id must be str, got int"),
        ("phase_found", ["review"], "phase_found must be str, got list"),
        ("status", None, "status must be str, got null"),
        ("found_at", "2004-03-01T10:00:00Z", "found_at must be datetime, got str"),
        ("fixed_at", 10**5000, "fixed_at must be datetime or null, got int"),
    ], ids=["bool severity", "str severity", "float fix_changes", "int id", "list phase_found",
            "None status", "str found_at", "over-long int fixed_at"])
    def test_field_types_are_checked(self, field, value, problem):
        with pytest.raises(ValidationError) as caught:
            with_fields(make_record(fixed_offset_h=5), **{field: value})
        assert str(caught.value) == f"invalid defect record\n  {problem}"

    def test_fix_changes_is_held_to_the_count_ceiling(self):
        assert make_record(fix_changes=MAX_COUNT).fix_changes == MAX_COUNT
        with pytest.raises(ValidationError) as caught:
            make_record(fix_changes=MAX_COUNT + 1)
        assert caught.value.diagnostics == (
            f"fix_changes must be <= {MAX_COUNT}, got {MAX_COUNT + 1}",
        )

    def test_slotted_without_instance_dict(self):
        record = DefectRecord(*self.FIELDS)
        assert not hasattr(record, "__dict__")
        assert DefectRecord.__slots__ == DefectRecord.__match_args__

    def test_pickle_round_trips(self):
        record = make_record(fixed_offset_h=5, fix_changes=2)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(record, protocol)) == record

    def test_copies_equal_the_original(self):
        record = make_record(fixed_offset_h=5, fix_changes=2)
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record

    def test_equality_and_hash_follow_the_fields(self):
        record = DefectRecord(*self.FIELDS)
        twin = DefectRecord(*self.FIELDS)
        other = with_fields(record, severity=3)
        assert record == twin and hash(record) == hash(twin)
        assert record != other
        assert len({record, twin, other}) == 2
        assert repr(record).startswith("DefectRecord(id='d1', product_id='m1', ")
