"""The record codec: one decoder for CSV rows and ledger objects, the
ledger encoder, and the timestamp helpers they share."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import serialize_product_registry, with_fields
from defectlab import (
    DefectRecord,
    ProductProfile,
    ValidationError,
    dump_ledger,
    ledger,
    load_ledger,
    parse_defect_log,
    parse_product_registry,
)
from defectlab.cli import EXIT_OK, EXIT_VALIDATION, run
from defectlab.errors import MAX_COUNT, show_value
from defectlab.ledger import DEFECT_CSV_COLUMNS, PHASES, STATUSES, Term, format_timestamp

#: One valid fixed defect, as a ledger object.
BASE = {
    "id": "d1",
    "product_id": "m1",
    "phase_injected": "build",
    "phase_found": "review",
    "found_at": "2004-03-01T10:00:00Z",
    "fixed_at": "2004-03-01T15:00:00Z",
    "severity": 2,
    "status": "fixed",
    "fix_changes": 4,
}
PRODUCTS = [{"product_id": "m1", "unique_formulas": 100}]
DROP = object()

#: Changes to BASE and the diagnostics each form reports, as
#: (change, ledger-object diagnostics, CSV-row diagnostics).  None means
#: the entry decodes to BASE's record, and a dict that it decodes to
#: BASE's record with those fields replaced.  The decoder parses the
#: timestamps and converts CSV integer cells; the record checks the rest
#: and lists every problem, naming a wrong type rather than the value.
PARITY_CASES = {
    "bool severity": (
        {"severity": True},
        ("defects[0]: severity must be int, got bool",),
        ("row 1: severity must be an integer, got 'True'",),
    ),
    "float fix_changes": (
        {"fix_changes": 1.5},
        ("defects[0]: fix_changes must be int or null, got float",),
        ("row 1: fix_changes must be an integer or null, got '1.5'",),
    ),
    "integer fixed_at": (
        {"fixed_at": 5},
        ("defects[0]: fixed_at must be a string or null, got 5",),
        ("row 1: invalid timestamp '5'",),
    ),
    # int reads other digits and "_" between digits; a CSV cell may hold neither.
    "Arabic-Indic severity": (
        {"severity": "+٢"},
        ("defects[0]: severity must be int, got str",),
        ("row 1: severity must be an integer, got '+٢'",),
    ),
    "underscored fix_changes": (
        {"fix_changes": "1_0"},
        ("defects[0]: fix_changes must be int or null, got str",),
        ("row 1: fix_changes must be an integer or null, got '1_0'",),
    ),
    "unknown status after a bad severity": (
        {"severity": "high", "status": "lost"},
        ("defects[0]: severity must be int, got str",),
        ("row 1: severity must be an integer, got 'high'",),
    ),
    "unknown status": (
        {"status": "lost"},
        ("defects[0]: unknown status 'lost'",),
        ("row 1: unknown status 'lost'",),
    ),
    "bad phase after a bad severity": (
        {"severity": "high", "phase_found": "sideways"},
        ("defects[0]: severity must be int, got str",),
        ("row 1: severity must be an integer, got 'high'",),
    ),
    "+02:00 stamp": (
        {"found_at": "2004-03-01T10:00:00+02:00"},
        ("defects[0]: timestamp '2004-03-01T10:00:00+02:00' must be UTC, not a local offset",),
        ("row 1: timestamp '2004-03-01T10:00:00+02:00' must be UTC, not a local offset",),
    ),
    "naive stamp": (
        {"found_at": "2004-03-01T10:00:00"},
        ("defects[0]: timestamp '2004-03-01T10:00:00' must carry a UTC offset",),
        ("row 1: timestamp '2004-03-01T10:00:00' must carry a UTC offset",),
    ),
    "NUL after the Z": (
        {"found_at": "2004-03-01T10:00:00Z\x00junk"},
        ("defects[0]: invalid timestamp '2004-03-01T10:00:00Z\\x00junk'",),
        ("row 1: invalid timestamp '2004-03-01T10:00:00Z\\x00junk'",),
    ),
    **{
        f"{name} before the zone": (
            {"found_at": stamp},
            (f"defects[0]: invalid timestamp {stamp!r}",),
            (f"row 1: invalid timestamp {stamp!r}",),
        )
        for name, stamp in [
            ("x", "2004-03-01T10:00:00xZ"),
            ("space", "2004-03-01T10:00:00 Z"),
            ("point", "2004-03-01T10:00:00.Z"),
            ("x and offset", "2004-03-01T10:00:00x+00:00"),
        ]
    },
    "+00:00 suffix": ({"found_at": "2004-03-01T10:00:00+00:00"}, None, None),
    "lowercase z suffix": ({"found_at": "2004-03-01T10:00:00z"}, None, None),
    "missing key": (
        {"fix_changes": DROP},
        ("defects[0]: defect entry missing keys: fix_changes",),
        ("row 1: expected 9 fields, got 8",),
    ),
    "unknown key": (
        {"colour": "red"},
        ("defects[0]: unknown keys colour",),
        ("row 1: expected 9 fields, got 10",),
    ),
    "fixed before found": (
        {"fixed_at": "2004-03-01T09:00:00Z"},
        ("defects[0]: fixed_at 2004-03-01T09:00:00Z is earlier than found_at "
         "2004-03-01T10:00:00Z",),
        ("row 1: fixed_at 2004-03-01T09:00:00Z is earlier than found_at 2004-03-01T10:00:00Z",),
    ),
    "non-string status and unknown phase_found": (
        {"status": 5, "phase_found": "sideways"},
        ("defects[0]: status must be str, got int",),
        ("row 1: unknown phase_found 'sideways'", "row 1: unknown status '5'"),
    ),
    "null found_at": (
        {"found_at": None},
        ("defects[0]: found_at must be a string, got None",),
        ("row 1: invalid timestamp ''",),
    ),
    "list id": (
        {"id": ["d1"]},
        ("defects[0]: id must be str, got list",),
        {"id": "['d1']"},
    ),
    "list product_id": (
        {"product_id": ["m1"]},
        ("defects[0]: product_id must be str, got list",),
        {"product_id": "['m1']"},
    ),
    "integer phase_injected and bad severity": (
        {"phase_injected": 3, "severity": 9},
        ("defects[0]: phase_injected must be str, got int",),
        ("row 1: unknown phase_injected '3'", "row 1: severity must be in 1..4, got 9"),
    ),
    "unknown phase_found and severity 9": (
        {"phase_found": "sideways", "severity": 9},
        ("defects[0]: unknown phase_found 'sideways'",
         "defects[0]: severity must be in 1..4, got 9"),
        ("row 1: unknown phase_found 'sideways'", "row 1: severity must be in 1..4, got 9"),
    ),
    "fixed with empty fixed_at": (
        {"fixed_at": ""},
        ("defects[0]: status 'fixed' is inconsistent with fixed_at absent",),
        ("row 1: status 'fixed' is inconsistent with fixed_at absent",),
    ),
    "bool fix_changes": (
        {"fix_changes": True},
        ("defects[0]: fix_changes must be int or null, got bool",),
        ("row 1: fix_changes must be an integer or null, got 'True'",),
    ),
    "empty id": (
        {"id": ""},
        ("defects[0]: id must be non-empty",),
        ("row 1: id must be non-empty",),
    ),
    "empty product_id": (
        {"product_id": ""},
        ("defects[0]: product_id must be non-empty",),
        ("row 1: product_id must be non-empty",),
    ),
}


def _ledger_text(entry: dict) -> str:
    return json.dumps({"products": PRODUCTS, "defects": [entry]})


def _csv_text(entry: dict) -> str:
    """The entry as a one-row defect log: null is an empty cell."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(DEFECT_CSV_COLUMNS)
    writer.writerow(["" if value is None else str(value) for value in entry.values()])
    return out.getvalue()


FORMS = {
    "ledger object": (_ledger_text, lambda text: load_ledger(text)[1]),
    "CSV row": (_csv_text, parse_defect_log),
}


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_decoder_diagnostics_match_the_record(form, case):
    change, ledger_diagnostics, csv_diagnostics = PARITY_CASES[case]
    expected = ledger_diagnostics if form == "ledger object" else csv_diagnostics
    entry = {k: v for k, v in (BASE | change).items() if v is not DROP}
    encode, decode = FORMS[form]
    if expected is None or isinstance(expected, dict):
        (record,) = decode(encode(entry))
        (base,) = decode(encode(BASE))
        assert record == with_fields(base, **(expected or {}))
        return
    with pytest.raises(ValidationError) as err:
        decode(encode(entry))
    assert err.value.diagnostics == expected


# -- Product ids --------------------------------------------------------


def _document(form: str, product_ids: list[str]) -> str:
    """A valid document in either form, with one defect per listed product id."""
    entries = [dict(BASE, id=f"d{i}", product_id=product) for i, product in enumerate(product_ids)]
    if form == "CSV row":
        return _csv_document([DEFECT_CSV_COLUMNS, *(entry.values() for entry in entries)])
    products = [{"product_id": p, "unique_formulas": 1} for p in dict.fromkeys(product_ids)]
    return json.dumps({"products": products, "defects": entries})


@pytest.mark.parametrize("form", sorted(FORMS))
def test_records_from_one_document_share_each_product_id(form):
    # Ids of two or more characters: CPython shares one-character strings anyway.
    records = FORMS[form][1](_document(form, ["m1", "m22", "product-3"] * 4))
    assert len(records) == 12
    assert len({id(r.product_id) for r in records}) == len({r.product_id for r in records}) == 3


@pytest.mark.parametrize("form", sorted(FORMS))
def test_decoding_keeps_no_product_id_after_its_records(form):
    # Ids kept in a table beyond the call would outlive their records, 2 MB
    # here; so would interned ids on Python 3.12, where interned strings
    # are immortal.  The warm-up, with other ids, fills the interpreter's
    # free lists before tracing starts.
    decode = FORMS[form][1]
    warm_up, text = (
        _document(form, [f"{form} {tag}{i:04d}".ljust(1024, "p") for i in range(2000)])
        for tag in "wt"
    )
    decode(warm_up)
    tracemalloc.start()
    try:
        decode(text)  # and drop the records at once
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 256 * 1024


# -- Timestamps ---------------------------------------------------------

_DAY = timedelta(hours=23, minutes=59)
_zones = st.one_of(
    st.just(timezone.utc),
    st.just(timezone(timedelta(0), "UTC")),
    st.timedeltas(min_value=-_DAY, max_value=_DAY).map(timezone),
)
_aware = st.datetimes(
    min_value=datetime(2, 1, 1), max_value=datetime(9998, 12, 31), timezones=_zones
)


@given(_aware)
def test_format_timestamp_matches_the_general_conversion(stamp):
    expected = stamp.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")
    assert format_timestamp(stamp) == expected


_ZERO = timedelta(0)


_DIGITS = "0123456789"


def _in_grammar(text: str) -> bool:
    """Whether ``text`` is in the timestamp grammar, checked place by place:
    ``YYYY-MM-DD``, ``T``, ``t`` or a space, ``HH:MM:SS``, an optional ``.``
    or ``,`` and at least one digit, then nothing, ``Z``, ``z``, or a sign
    and ``HH:MM``.  Only ASCII digits count."""

    def shaped(part: str, shape: str) -> bool:  # "9" stands for a digit
        return len(part) == len(shape) and all(
            c in _DIGITS if s == "9" else c == s for c, s in zip(part, shape)
        )

    date, separator, time, tail = text[:10], text[10:11], text[11:19], text[19:]
    if not (shaped(date, "9999-99-99") and separator in ("T", "t", " ")
            and shaped(time, "99:99:99")):
        return False
    if tail[:1] in (".", ","):
        fraction = len(tail) - len(tail[1:].lstrip(_DIGITS))  # with its mark
        if fraction == 1:
            return False
        tail = tail[fraction:]
    return tail in ("", "Z", "z") or tail[:1] in ("+", "-") and shaped(tail[1:], "99:99")


def _reference_parse_timestamp(text: str) -> datetime:
    """``parse_timestamp`` written apart from it: the reference for its
    results and messages, which show the text as every decoder message
    does.  Stripped text outside the grammar is invalid; text in it is read
    by ``fromisoformat`` with a final ``Z`` or ``z`` as ``+00:00``."""
    raw = text.strip()
    if not _in_grammar(raw):
        raise ValidationError(f"invalid timestamp {show_value(text)}")
    normalised = raw[:-1] + "+00:00" if raw.endswith(("Z", "z")) else raw
    try:
        stamp = datetime.fromisoformat(normalised)
    except ValueError:
        raise ValidationError(f"invalid timestamp {show_value(text)}") from None
    if stamp.tzinfo is timezone.utc:
        return stamp
    if stamp.tzinfo is None:
        raise ValidationError(f"timestamp {show_value(text)} must carry a UTC offset")
    if stamp.utcoffset() != _ZERO:
        raise ValidationError(f"timestamp {show_value(text)} must be UTC, not a local offset")
    return stamp


def _parse_outcome(parse, text) -> tuple:
    """What ``parse`` makes of ``text``: the stamp, its zone and its fold,
    or the exception's type and message."""
    try:
        stamp = parse(text)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc), str(exc)
    return stamp, stamp.tzinfo, stamp.fold


def _digits(n: int) -> st.SearchStrategy[str]:
    return st.integers(0, 10**n - 1).map(lambda v: f"{v:0{n}d}")


_year = st.sampled_from(["2004", "0001", "9999", "0000"]) | _digits(4)
_month = st.sampled_from(["01", "02", "12", "00", "13"])
_day = st.sampled_from(["01", "28", "29", "31", "00", "32"])
_week = st.sampled_from(["01", "52", "53", "54", "00"])
_weekday = st.sampled_from(["1", "7", "0", "8"])
_ordinal = st.sampled_from(["001", "059", "060", "365", "366", "367", "000"])
_dates = st.one_of(
    st.tuples(_year, _month, _day).map("{0[0]}-{0[1]}-{0[2]}".format),
    st.tuples(_year, _month, _day).map("".join),
    st.tuples(_year, _week, _weekday).map("{0[0]}-W{0[1]}-{0[2]}".format),
    st.tuples(_year, _week, _weekday).map("{0[0]}W{0[1]}{0[2]}".format),
    st.tuples(_year, _week).map("{0[0]}-W{0[1]}".format),
    st.tuples(_year, _ordinal).map("{0[0]}-{0[1]}".format),
    st.tuples(_year, _ordinal).map("".join),
)
_hour = st.sampled_from(["00", "10", "23", "24", "25"])
_minute = st.sampled_from(["00", "30", "59", "60"])
_fraction = st.just("") | st.tuples(
    st.sampled_from([".", ","]), st.integers(1, 9).flatmap(_digits)
).map("".join)
_times = st.one_of(
    _hour,
    st.tuples(_hour, _minute).map(":".join),
    st.tuples(_hour, _minute).map("".join),
    st.tuples(_hour, _minute, _minute, _fraction).map("{0[0]}:{0[1]}:{0[2]}{0[3]}".format),
    st.tuples(_hour, _minute, _minute, _fraction).map("".join),
)
_zone_marks = st.sampled_from([
    "", "Z", "z", "+00:00", "-00:00", "+0000", "-0000", "+00", "+01:00", "-05:30",
    "+00:00:00", "+00:00:00.000001", "+01:00Z", "Zz", "Z+00:00",
])
_separators = st.sampled_from(["T", " ", "t", "", "TT", "_"])
_spaces = st.sampled_from(["", " ", "  ", "\t", "\n", "　", "\x00"])
_garbage = st.text(max_size=4)


@st.composite
def _stamp_texts(draw) -> str:
    """Timestamp-like text built from ISO 8601 fragments, sometimes with
    a piece missing or garbage spliced in."""
    date = draw(_dates)
    if draw(st.integers(0, 4)) == 0:
        text = date
    else:
        text = date + draw(_separators) + draw(_times)
    text += draw(_zone_marks)
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_garbage) + text[at:]
    return draw(_spaces) + text + draw(_spaces)


#: Well-formed stamps at every precision, most of which parse.
_iso_texts = st.builds(
    lambda stamp, sep, spec, zone, lead, trail: lead + stamp.isoformat(sep, spec) + zone + trail,
    st.datetimes(), st.sampled_from("T "),
    st.sampled_from(["hours", "minutes", "seconds", "milliseconds", "microseconds"]),
    _zone_marks, _spaces, _spaces,
)


@settings(max_examples=600)
@given(st.one_of(_iso_texts, _stamp_texts(), st.text(max_size=30)))
def test_parse_timestamp_matches_the_reference(text):
    outcome = _parse_outcome(ledger.parse_timestamp, text)
    assert outcome == _parse_outcome(_reference_parse_timestamp, text)
    if isinstance(outcome[0], datetime):
        assert outcome[1] is timezone.utc


class _Text(str):
    pass


@pytest.mark.parametrize("value", [
    None, 5, 1.5, ["2004-03-01T10:00:00Z"], b"2004-03-01T10:00:00Z",
    bytearray(b"2004-03-01T10:00:00+00:00"), _Text("2004-03-01T10:00:00Z"),
    _Text(" 2004-03-01T10:00:00z "), _Text("2004-03-01T10:00:00+02:00"),
], ids=repr)
def test_parse_timestamp_matches_the_reference_off_str(value):
    # A value that is not str raises TypeError; no decoder passes one, since
    # each checks for str first.  A str subclass parses as its text does.
    if not isinstance(value, str):
        with pytest.raises(TypeError):
            ledger.parse_timestamp(value)
        return
    assert _parse_outcome(ledger.parse_timestamp, value) == _parse_outcome(
        _reference_parse_timestamp, str(value)
    )


# -- Timestamp call counts ---------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "golden"


def test_codec_calls_the_module_timestamp_helpers(monkeypatch):
    """The benchmark's launcher counts timestamp calls by replacing
    ``ledger.parse_timestamp`` and ``ledger.format_timestamp`` on the
    module; a codec that bound them elsewhere would read zero calls."""
    calls = {"parse_timestamp": 0, "format_timestamp": 0}

    def counted(name):
        inner = getattr(ledger, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(ledger, name, counted(name))
    text = (GOLDEN / "defects.csv").read_text(encoding="utf-8")
    rows = list(csv.DictReader(io.StringIO(text)))
    stamps = len(rows) + sum(1 for row in rows if row["fixed_at"])
    profiles = ledger.parse_product_registry(
        (GOLDEN / "products.json").read_text(encoding="utf-8")
    )

    records = ledger.parse_defect_log(text)
    assert calls == {"parse_timestamp": stamps, "format_timestamp": 0}
    document = ledger.dump_ledger(profiles, records)
    assert calls == {"parse_timestamp": stamps, "format_timestamp": stamps}
    assert ledger.load_ledger(document)[1] == records
    assert calls == {"parse_timestamp": 2 * stamps, "format_timestamp": stamps}


# -- Ledger round trip --------------------------------------------------

_names = st.text(min_size=1, max_size=8)
_utc_stamps = st.datetimes(
    min_value=datetime(1900, 1, 1), max_value=datetime(2100, 1, 1),
    timezones=st.sampled_from([timezone.utc, timezone(timedelta(0), "UTC")]),
)
_counts = st.integers(1, MAX_COUNT)
_profiles = st.lists(_names, min_size=1, max_size=4, unique=True).flatmap(
    lambda ids: st.tuples(*(
        st.builds(
            ProductProfile,
            product_id=st.just(product_id),
            unique_formulas=_counts,
            kloc=st.none() | st.floats(1e-6, 1e12),
            function_points=st.none() | _counts,
            description=st.text(max_size=8),
        )
        for product_id in ids
    )).map(list)
)


@st.composite
def _ledgers(draw, names=_names):
    profiles = draw(_profiles)
    records = []
    for index in range(draw(st.integers(0, 6))):
        found = draw(_utc_stamps)
        fixed = draw(st.none() | st.timedeltas(timedelta(0), timedelta(days=400)).map(
            lambda delta: found + delta
        ))
        records.append(DefectRecord(
            id=f"{draw(names)}-{index}",
            product_id=draw(st.sampled_from([p.product_id for p in profiles])),
            phase_injected=draw(st.sampled_from(list(PHASES))),
            phase_found=draw(st.sampled_from([p for p in PHASES if p != "unknown"])),
            found_at=found,
            fixed_at=fixed,
            severity=draw(st.integers(1, 4)),
            status="fixed" if fixed else draw(st.sampled_from(["open", "deferred"])),
            fix_changes=draw(st.none() | st.integers(0, MAX_COUNT)),
        ))
    return profiles, records


@given(_ledgers())
def test_load_inverts_dump(ledger):
    profiles, records = ledger
    assert load_ledger(dump_ledger(profiles, records)) == (profiles, records)


#: Ids full of what JSON must escape or may write as it stands: quotes,
#: backslashes, control characters and non-ASCII text.
_awkward_names = st.text(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "中", "\U0001f600"])
    | st.characters(),
    min_size=1, max_size=8,
)


def _entry_literal(record: DefectRecord) -> dict:
    return {
        "id": record.id,
        "product_id": record.product_id,
        "phase_injected": record.phase_injected,
        "phase_found": record.phase_found,
        "found_at": format_timestamp(record.found_at),
        "fixed_at": None if record.fixed_at is None else format_timestamp(record.fixed_at),
        "severity": record.severity,
        "status": record.status,
        "fix_changes": record.fix_changes,
    }


@given(_ledgers(names=_awkward_names))
def test_ledger_entries_are_the_dict_literals(ledger_):
    # The entries are built another way than as literals; they must be
    # exact dicts, equal key for key and in order, and write the same text.
    profiles, records = ledger_
    entries = ledger.build_ledger(profiles, records)["defects"]
    literals = [_entry_literal(r) for r in records]
    for entry, literal in zip(entries, literals, strict=True):
        assert type(entry) is dict
        assert list(entry.items()) == list(literal.items())
        assert tuple(entry) == DEFECT_CSV_COLUMNS
    products = [
        {"product_id": p.product_id, "unique_formulas": p.unique_formulas, "kloc": p.kloc,
         "function_points": p.function_points, "description": p.description}
        for p in profiles
    ]
    expected = json.dumps({"products": products, "defects": literals}, indent=2) + "\n"
    assert dump_ledger(profiles, records) == expected
    if entries:
        entries[0]["extra"] = 1
        assert entries[0] == {**literals[0], "extra": 1}
        assert entries[1:] == literals[1:]
        assert all(list(e) == list(DEFECT_CSV_COLUMNS) for e in entries[1:])



#: Values of each type a record field holds, and of other types.
_any_values = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 5), st.just(10**5000), st.floats(),
    st.sampled_from([*PHASES, *PHASES.values(), "fixed", STATUSES["open"], "Build", ""]),
    st.text(max_size=4),
    st.datetimes(timezones=st.sampled_from([None, timezone.utc, timezone(timedelta(hours=2))])),
    st.dates(), st.binary(max_size=2),
)
#: Each field's types, in column order, spelled out rather than read from the module.
_FIELD_TYPES = (
    (str,), (str,), (str, Term), (str, Term), (datetime,), (datetime, type(None)), (int,),
    (str, Term), (int, type(None)),
)


@st.composite
def _mixed_record_values(draw):
    """A valid record's nine values, with up to three of them replaced by any value."""
    found = draw(_utc_stamps)
    fixed = draw(st.none() | st.timedeltas(timedelta(0), timedelta(days=400)).map(
        lambda delta: found + delta
    ))
    values = [
        draw(_names), draw(_names), draw(st.sampled_from(list(PHASES))),
        draw(st.sampled_from([p for p in PHASES if p != "unknown"])), found, fixed,
        draw(st.integers(1, 4)), "fixed" if fixed else draw(st.sampled_from(["open", "deferred"])),
        draw(st.none() | st.integers(0, MAX_COUNT)),
    ]
    for index in draw(st.sets(st.integers(0, len(values) - 1), max_size=3)):
        values[index] = draw(_any_values)
    return values


@settings(max_examples=300)
@given(_mixed_record_values())
def test_every_record_that_constructs_round_trips(values):
    # Any other exception than ValidationError fails the test.
    try:
        record = DefectRecord(*values)
    except ValidationError:
        return
    assert all(type(value) in kinds for value, kinds in zip(values, _FIELD_TYPES))
    profiles = [ProductProfile(product_id=record.product_id, unique_formulas=1)]
    assert load_ledger(dump_ledger(profiles, [record])) == (profiles, [record])


#: Values of each type a profile field holds, and of other types.
_any_profile_values = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 5),
    st.sampled_from([0, -1, MAX_COUNT, MAX_COUNT + 1, 10**5000]),
    st.sampled_from([float("nan"), float("inf"), 2.5]), st.floats(),
    st.text(max_size=4), st.lists(st.integers(0, 2), max_size=2),
)
#: Each profile field's types, spelled out rather than read from the module.
_PROFILE_TYPES = ((str,), (int, type(None)), (float, int, type(None)), (int, type(None)), (str,))


@st.composite
def _mixed_profile_values(draw):
    """A valid profile's five values, with up to three of them replaced by any value."""
    values = [
        draw(_names), draw(st.none() | _counts), draw(st.none() | st.floats(1e-6, 1e12)),
        draw(_counts), draw(st.text(max_size=8)),
    ]
    for index in draw(st.sets(st.integers(0, len(values) - 1), max_size=3)):
        values[index] = draw(_any_profile_values)
    return values


@settings(max_examples=300)
@given(_mixed_profile_values())
def test_every_profile_that_constructs_round_trips(values):
    # Any other exception than ValidationError fails the test.
    try:
        profile = ProductProfile(*values)
    except ValidationError:
        return
    assert all(type(value) in kinds for value, kinds in zip(values, _PROFILE_TYPES))
    assert load_ledger(dump_ledger([profile], [])) == ([profile], [])
    assert parse_product_registry(serialize_product_registry([profile])) == [profile]

# -- Exit-code contract on generated ledger inputs ----------------------

#: Cell values near the edges of what each column accepts.
_cells = st.one_of(
    st.sampled_from(
        ["", "d1", "m1", "build", "review", "unknown", "fixed", "open", "deferred", "Build",
         "2004-03-01T10:00:00Z", "2004-03-01T10:00:00z", "2004-03-01T10:00:00+00:00",
         "2004-03-01T10:00:00+02:00", "2004-03-01T10:00:00", "2004-02-30T10:00:00Z",
         "0", "2", "4", "5", "-1", "1.5", "True", "null", "9" * 401]
    ),
    st.text(max_size=6),
)
_defect_csv = st.one_of(
    st.lists(st.lists(_cells, min_size=8, max_size=10), max_size=4).map(
        lambda rows: _csv_document([DEFECT_CSV_COLUMNS, *rows])
    ),
    st.text(max_size=40),
)
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 10) | st.just(10**400), st.floats(), _cells
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _csv_document(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


@st.composite
def _ledger_documents(draw):
    """Ledger JSON: a valid one with some fields replaced, or any JSON."""
    if draw(st.booleans()):
        return json.dumps(draw(_json_values))
    product = {"product_id": "m1", "unique_formulas": 100, "kloc": None,
               "function_points": None, "description": ""}
    defect = dict(BASE, product_id="m1")
    for entry, keys in ((product, list(product)), (defect, list(defect))):
        for key in draw(st.lists(st.sampled_from(keys), max_size=2)):
            entry[key] = draw(_json_values)
        if draw(st.booleans()):
            entry.pop(draw(st.sampled_from(keys)))
    return json.dumps({"products": [product], "defects": [defect]})


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def _assert_contract(code: int, err: str) -> None:
    assert code in (EXIT_OK, EXIT_VALIDATION)
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == (0 if code == EXIT_OK else 1)


@settings(deadline=None)
@given(_defect_csv)
def test_ingest_keeps_the_exit_code_contract(defects):
    with tempfile.TemporaryDirectory() as scratch:
        paths = {name: os.path.join(scratch, name) for name in ("d.csv", "p.json", "out.json")}
        with open(paths["d.csv"], "w", encoding="utf-8", newline="") as handle:
            handle.write(defects)
        with open(paths["p.json"], "w", encoding="utf-8") as handle:
            # Both ids that _cells offers for the product_id column.
            json.dump(PRODUCTS + [{"product_id": "d1", "kloc": 2.5}], handle)
        _assert_contract(*_run_quietly([
            "ingest", "--defects", paths["d.csv"], "--products", paths["p.json"],
            "--out", paths["out.json"],
        ]))


@settings(deadline=None)
@given(_ledger_documents())
def test_metrics_keeps_the_exit_code_contract(document):
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "ledger.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(document)
        _assert_contract(*_run_quietly(["metrics", "--ledger", path]))


# -- Over-long values in messages ---------------------------------------

_LONG = "x" * 200_000


@pytest.mark.parametrize("entries", [
    [{"found_at": _LONG}],
    [{"status": _LONG}],
    [{"id": _LONG}, {"id": _LONG}],
    [{"id": _LONG, "product_id": _LONG}],
], ids=["found_at", "status", "duplicate id", "id of an unknown product"])
def test_metrics_cuts_an_over_long_value_in_its_message(tmp_path, entries):
    path = tmp_path / "ledger.json"
    defects = [BASE | change for change in entries]
    path.write_text(json.dumps({"products": PRODUCTS, "defects": defects}), encoding="utf-8")
    code, err = _run_quietly(["metrics", "--ledger", str(path)])
    assert code == EXIT_VALIDATION
    _assert_contract(code, err)
    assert "... (200002 characters)" in err
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("where", ["defects", "products"])
def test_metrics_cuts_an_over_long_unknown_key(tmp_path, where):
    path = tmp_path / "ledger.json"
    document = {"products": PRODUCTS, "defects": [BASE]}
    document[where] = [document[where][0] | {_LONG: 1}]
    path.write_text(json.dumps(document), encoding="utf-8")
    code, err = _run_quietly(["metrics", "--ledger", str(path)])
    assert code == EXIT_VALIDATION
    _assert_contract(code, err)
    assert f"{where}[0]: unknown keys {'x' * 100}... (200000 characters)" in err
    assert len(err.encode()) < 1024


def test_ingest_cuts_an_over_long_cell_in_its_message(tmp_path):
    paths = {name: tmp_path / name for name in ("d.csv", "p.json", "out.json")}
    paths["d.csv"].write_text(_csv_text(BASE | {"phase_found": "y" * 100_000}), encoding="utf-8")
    paths["p.json"].write_text(json.dumps(PRODUCTS), encoding="utf-8")
    code, err = _run_quietly([
        "ingest", "--defects", str(paths["d.csv"]), "--products", str(paths["p.json"]),
        "--out", str(paths["out.json"]),
    ])
    assert code == EXIT_VALIDATION
    _assert_contract(code, err)
    assert "unknown phase_found 'yyy" in err and "... (100002 characters)" in err
    assert len(err.encode()) < 1024
    assert not paths["out.json"].exists()
