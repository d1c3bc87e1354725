"""Defect ledger model and file ingestion.

A ledger is a set of product profiles plus the defect records logged
against them.  Defect logs travel as CSV, product registries as JSON,
and the two combine into a single ledger JSON document that the rest
of the toolkit consumes.  Each input shape has one decoder: every CSV
document goes through :func:`read_csv_table`, every defect through
``_record_from_values`` and every product through ``_profile_from_dict``.
A defect reaches its decoder as its nine values in column order: a CSV
row through ``_csv_values`` and a ledger object through ``_entry_values``.
The decoder parses the timestamps and :class:`DefectRecord` checks the
rest.  The records decoded from one document share one copy of each product id.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections.abc import Callable, Sequence
from datetime import datetime, timedelta, timezone
from operator import itemgetter
from typing import TypeVar

from .errors import (
    MAX_BUCKETS, MAX_COUNT, ValidationError, Value, count_problem, cut, plain_number,
    real_problem, refuse, show_int, show_value,
)

T = TypeVar("T")

#: Column order for defect-log CSV files.  Header row is mandatory.
DEFECT_CSV_COLUMNS = (
    "id",
    "product_id",
    "phase_injected",
    "phase_found",
    "found_at",
    "fixed_at",
    "severity",
    "status",
    "fix_changes",
)

_DEFECT_KEYS = frozenset(DEFECT_CSV_COLUMNS)

SEVERITY_RANGE = (1, 4)


class Term(str):
    """A phase or status string.  Its ``value`` is the plain string, so code
    that reads ``record.status.value``, as of an enum member, keeps working."""

    __slots__ = ()
    value = property(str.__str__)


#: Phases in lifecycle order, and statuses, each mapped to the one copy records hold.
PHASES = {p: Term(p) for p in "requirements design build review test use unknown".split()}
STATUSES = {s: Term(s) for s in ("open", "fixed", "deferred")}
_UNKNOWN, _FIXED = PHASES["unknown"], STATUSES["fixed"]

_UTC = timezone.utc
_ZERO = timedelta(0)

#: The timestamp grammar that :func:`parse_timestamp` states; ``re``
#: compiles it on first use, not at import.
_STAMP = r"\d{4}-\d\d-\d\d[Tt ]\d\d:\d\d:\d\d(?:[.,]\d+)?(?:[Zz]|[+-]\d\d:\d\d)?"


def parse_timestamp(text: str) -> datetime:
    """Parse a timestamp in the ledger's grammar, which must say UTC.

    The grammar is ``YYYY-MM-DD``, then ``T``, ``t`` or a space, then
    ``HH:MM:SS`` with an optional ``.`` or ``,`` fraction, then an optional
    zone: ``Z``, ``z`` or ``+HH:MM``/``-HH:MM``.  Only ASCII digits count,
    and surrounding whitespace is stripped.  Any other text is an invalid
    timestamp.  A stamp without a zone, or with a nonzero offset, is
    refused too, so that records from different sources always compare on
    the same clock.  A value that is not a ``str`` raises ``TypeError``.
    """
    try:
        # fromisoformat reads only ASCII digits, so text of this shape that
        # it takes is in the canonical form, which ingest writes.
        if len(text) == 20 and text[4::3] == "--T::Z":
            return datetime.fromisoformat(text)
        raw = str.strip(text)
        if not re.fullmatch(_STAMP, raw, re.ASCII):
            raise ValueError
        stamp = datetime.fromisoformat(raw[:-1] + "+00:00" if raw[-1] in "Zz" else raw)
    except ValueError:
        raise ValidationError(f"invalid timestamp {show_value(text)}") from None
    if stamp.tzinfo is _UTC:  # fromisoformat's zone for every zero offset
        return stamp
    if stamp.tzinfo is None:
        raise ValidationError(f"timestamp {show_value(text)} must carry a UTC offset")
    raise ValidationError(f"timestamp {show_value(text)} must be UTC, not a local offset")


def format_timestamp(stamp: datetime) -> str:
    """Render a timestamp as ISO 8601 with the ``Z`` designator."""
    if stamp.tzinfo is not timezone.utc:
        stamp = stamp.astimezone(timezone.utc)
    # The naive parts format quicker than the aware stamp and its offset.
    return f"{stamp.date().isoformat()}T{stamp.time().isoformat()}Z"


class DefectRecord(Value):
    """One logged defect.

    Each field has exactly the type ``__init__`` names; a phase or status may be a :class:`Term`.
    The phases are in :data:`PHASES`, and ``phase_found`` is not ``"unknown"``;
    the status is in :data:`STATUSES`, and is ``"fixed"`` exactly when ``fixed_at``
    is present, not before ``found_at``.  The record holds those mappings' terms.
    ``fix_changes`` counts the cells or components the fix touched.

    The fields are slots, in column order, so a record has no
    ``__dict__``; ``fix_changes`` defaults to None in ``__init__``.
    """

    __slots__ = DEFECT_CSV_COLUMNS

    id: str
    product_id: str
    phase_injected: Term
    phase_found: Term
    found_at: datetime
    fixed_at: datetime | None
    severity: int
    status: Term
    fix_changes: int | None

    def __init__(
        self,
        id: str,
        product_id: str,
        phase_injected: str,
        phase_found: str,
        found_at: datetime,
        fixed_at: datetime | None,
        severity: int,
        status: str,
        fix_changes: int | None = None,
    ) -> None:
        # The slots' own setters fill the fields in under half the time
        # of object.__setattr__.  Assignment still raises, through
        # Value.__setattr__.
        (
            set_id, set_product_id, set_phase_injected, set_phase_found, set_found_at,
            set_fixed_at, set_severity, set_status, set_fix_changes,
        ) = _SLOT_SETTERS
        set_id(self, id)
        set_product_id(self, product_id)
        set_found_at(self, found_at)
        set_fixed_at(self, fixed_at)
        set_severity(self, severity)
        set_fix_changes(self, fix_changes)
        if not (
            type(id) is str and type(product_id) is str and type(phase_injected) in _TEXT
            and type(phase_found) in _TEXT and type(found_at) is datetime
            and (fixed_at is None or type(fixed_at) is datetime)
            and type(severity) is int and type(status) in _TEXT
            and (fix_changes is None or type(fix_changes) is int)
        ):
            values = (id, product_id, phase_injected, phase_found, found_at, fixed_at, severity,
                      status, fix_changes)
            raise ValidationError(
                "invalid defect record", _type_problems(DEFECT_CSV_COLUMNS, values, _FIELD_TYPES)
            )
        # A record holds the module's copy of each phase and status.
        injected, found = PHASES.get(phase_injected), PHASES.get(phase_found)
        state = STATUSES.get(status)
        set_phase_injected(self, injected)
        set_phase_found(self, found)
        set_status(self, state)

        problems = []
        if not id:
            problems.append("id must be non-empty")
        if not product_id:
            problems.append("product_id must be non-empty")
        if injected is None:
            problems.append(f"unknown phase_injected {show_value(phase_injected)}")
        if found is None:
            problems.append(f"unknown phase_found {show_value(phase_found)}")
        elif found is _UNKNOWN:
            problems.append("phase_found may not be 'unknown'")
        found_utc = found_at.tzinfo is _UTC or found_at.utcoffset() == _ZERO
        if not found_utc:
            problems.append("found_at must be a UTC timestamp")
        lo, hi = SEVERITY_RANGE
        if not lo <= severity <= hi:
            problems.append(f"severity must be in {lo}..{hi}, got {show_int(severity)}")
        if state is None:
            problems.append(f"unknown status {show_value(status)}")
        elif (state is _FIXED) != (fixed_at is not None):
            problems.append(
                f"status {state!r} is inconsistent with "
                f"fixed_at {'present' if fixed_at else 'absent'}"
            )
        if fixed_at is not None:
            if fixed_at.tzinfo is not _UTC and fixed_at.utcoffset() != _ZERO:
                problems.append("fixed_at must be a UTC timestamp")
            elif found_utc and fixed_at < found_at:
                problems.append(
                    f"fixed_at {format_timestamp(fixed_at)} is earlier than "
                    f"found_at {format_timestamp(found_at)}"
                )
        if fix_changes is not None and not 0 <= fix_changes <= MAX_COUNT:
            problems.append(count_problem("fix_changes", fix_changes))
        if problems:
            raise ValidationError(f"invalid defect record {show_value(id)}", problems)


def _type_problems(
    names: Sequence[str], values: Sequence, kinds: Sequence[tuple[type, ...]]
) -> list[str]:
    """A problem for each value whose type is not exactly one of its ``kinds``.
    Each names the value's type, never its repr: the repr of an over-long integer raises.
    A kind whose base is also listed, as :class:`Term`'s ``str`` is, goes unnamed, and
    None's type is named ``null``, as the ledger writes it."""
    return [
        f"{name} must be {' or '.join(_type_name(k) for k in types if k.__base__ not in types)}, "
        f"got {_type_name(type(value))}"
        for name, value, types in zip(names, values, kinds)
        if type(value) not in types
    ]


def _type_name(kind: type) -> str:
    return "null" if kind is _NONE else kind.__name__


#: Each slot's setter, in field order, for DefectRecord.__init__.
_SLOT_SETTERS = tuple(getattr(DefectRecord, name).__set__ for name in DefectRecord.__slots__)

#: Each field's types, in field order.
_TEXT, _NONE = (str, Term), type(None)
_FIELD_TYPES = (
    (str,), (str,), _TEXT, _TEXT, (datetime,), (datetime, _NONE), (int,), _TEXT, (int, _NONE)
)


class ProductProfile(Value):
    """Size and identity of one audited product.

    Each field has exactly the type its annotation names, so ``bool`` is
    refused, and an integer ``kloc`` is held as a float.  At least one
    size measure must be present.  Spreadsheet-style products are usually
    sized in unique formulas; conventional code in KLOC or function points.
    """

    product_id: str
    unique_formulas: int | None = None
    kloc: float | None = None
    function_points: int | None = None
    description: str = ""

    def __post_init__(self) -> None:
        sizes = self._asdict()  # every field, until the two that are not sizes leave
        refuse("invalid product profile", *_type_problems(sizes, sizes.values(), _PROFILE_TYPES))
        product_id = sizes.pop("product_id")
        del sizes["description"]
        refuse(
            f"invalid product profile {show_value(product_id)}",
            None if product_id else "product_id must be non-empty",
            "at least one size measure is required"
            if all(s is None for s in sizes.values()) else None,
            *(count_problem(name, value) if type(value) is int and value > 0
              else real_problem(f"{name}: size", value)
              for name, value in sizes.items() if value is not None),
        )
        if type(self.kloc) is int:  # held to MAX_COUNT above, so exact as a float
            self.__dict__["kloc"] = float(self.kloc)


#: Each profile field's types, in field order.
_PROFILE_TYPES = ((str,), (int, _NONE), (float, int, _NONE), (int, _NONE), (str,))
_PRODUCT_KEYS = frozenset(ProductProfile.__match_args__)


def read_csv_table(
    text: str, columns: tuple[str, ...], what: str, decode: Callable[[list[str]], T]
) -> list[T]:
    """Decode every data row of a CSV document whose header is ``columns``.

    Blank rows are skipped; the rest must have one field per column and
    are passed to ``decode`` stripped of surrounding whitespace.  All
    problems are collected and reported together, each diagnostic
    prefixed with the 1-based data row it came from.  ``what`` names the
    document in messages.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ValidationError(f"{what} line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValidationError(f"{what} is empty; expected a header row")
    if tuple(rows[0]) != columns:
        raise ValidationError(
            f"{what} header mismatch: expected {','.join(columns)}, "
            f"got {show_value(','.join(rows[0]))}"
        )
    decoded: list[T] = []
    diagnostics: list[str] = []
    for row_no, row in enumerate(rows[1:], start=1):
        if not row:
            continue
        if len(row) != len(columns):
            diagnostics.append(f"row {row_no}: expected {len(columns)} fields, got {len(row)}")
            continue
        try:
            decoded.append(decode([field.strip() for field in row]))
        except ValidationError as exc:
            diagnostics.extend(f"row {row_no}: {d}" for d in exc.diagnostics or (str(exc),))
    refuse(f"{what} failed validation", *diagnostics)
    return decoded


def _decode_each(
    entries: list, label: str, decode: Callable[[object], T], diagnostics: list[str]
) -> list[T]:
    """Decode every entry of a JSON array, collecting one diagnostic per
    problem, prefixed with ``label`` formatted with the entry's index."""
    decoded: list[T] = []
    for index, entry in enumerate(entries):
        try:
            decoded.append(decode(entry))
        except ValidationError as exc:
            prefix = label.format(index)
            diagnostics.extend(f"{prefix}: {d}" for d in exc.diagnostics or (str(exc),))
    return decoded


def _load_json(text: str, what: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError(f"{what} nests too deeply to decode") from None
    except ValueError:  # an integer literal past Python's digit limit
        raise ValidationError(f"{what} holds an integer literal too long to decode") from None


def _check_keys(entry: object, keys: frozenset[str]) -> None:
    if not isinstance(entry, dict):
        raise ValidationError("expected an object")
    if not entry.keys() <= keys:
        # A key that is not printable, a newline say, is shown escaped so
        # that it cannot start a line of its own, and a long key is cut.
        unknown = (cut(k if k.isprintable() else repr(k)) for k in sorted(entry.keys() - keys))
        raise ValidationError(f"unknown keys {', '.join(unknown)}")


def _record_from_values(values: Sequence, names: dict[str, str]) -> DefectRecord:
    """Decode one defect from its nine values in column order, as a ledger
    object or a CSV row gives them.  ``names`` maps each product id decoded
    so far from the same document to the copy its records hold, so that
    the document's records share one string per product.

    The decoder only parses the two timestamps, and fails on the first
    that is not a string (``fixed_at`` may be null or empty) or does not
    parse.  :class:`DefectRecord` checks every other field and lists each
    problem it finds.
    """
    ident, product, injected, found, found_at, fixed_at, severity, status, changes = values
    if type(found_at) is not str:
        raise ValidationError(f"found_at must be a string, got {show_value(found_at)}")
    if fixed_at is not None and type(fixed_at) is not str:
        raise ValidationError(f"fixed_at must be a string or null, got {show_value(fixed_at)}")
    if type(product) is str:  # any other value is unhashable or the record refuses it
        product = names.setdefault(product, product)
    return DefectRecord(
        ident, product, injected, found, parse_timestamp(found_at),
        parse_timestamp(fixed_at) if fixed_at else None, severity, status, changes
    )


class _Entry:
    """A ledger entry under construction.  The instance dicts of one class
    share one key table (PEP 412), so each entry stores only its values."""


def _record_to_dict(record: DefectRecord) -> dict:
    """A record as its ledger object: a plain dict, keys in column order."""
    entry = _Entry()
    entry.id = record.id
    entry.product_id = record.product_id
    entry.phase_injected = record.phase_injected
    entry.phase_found = record.phase_found
    entry.found_at = format_timestamp(record.found_at)
    entry.fixed_at = format_timestamp(record.fixed_at) if record.fixed_at else None
    entry.severity = record.severity
    entry.status = record.status
    entry.fix_changes = record.fix_changes
    return entry.__dict__


#: A ledger object's values in column order.
_column_values = itemgetter(*DEFECT_CSV_COLUMNS)


def _entry_values(entry: object) -> tuple:
    """A ledger object's values in column order; its keys must be exactly
    the columns."""
    if not isinstance(entry, dict) or entry.keys() != _DEFECT_KEYS:
        _check_keys(entry, _DEFECT_KEYS)
        missing = [k for k in DEFECT_CSV_COLUMNS if k not in entry]
        raise ValidationError(f"defect entry missing keys: {', '.join(missing)}")
    return _column_values(entry)


def _csv_int(text: str, message: str) -> int:
    try:
        return plain_number(int, text)
    except ValueError:
        raise ValidationError(f"{message}, got {show_value(text)}") from None


def _csv_values(fields: list[str]) -> tuple:
    """A defect-log row's values as the ledger object it stands for would
    give them: an empty ``fix_changes`` cell is null and integer cells are
    numbers, or fail here.  An empty ``fixed_at`` cell stays empty, which
    the decoder reads as null, as it does an empty string in a ledger object."""
    ident, product, injected, found, found_at, fixed_at, severity, status, changes = fields
    severity = _csv_int(severity, "severity must be an integer")
    changes = _csv_int(changes, "fix_changes must be an integer or null") if changes else None
    return ident, product, injected, found, found_at, fixed_at, severity, status, changes


def _admit(
    record: DefectRecord, seen_ids: set[str], products: set[str] | None = None
) -> DefectRecord:
    """The ledger's reference rule: defect ids are unique and, when the
    registered ``products`` are given, every record names one of them."""
    if record.id in seen_ids:
        raise ValidationError(f"duplicate defect id {show_value(record.id)}")
    if products is not None and record.product_id not in products:
        raise ValidationError(
            f"defect {show_value(record.id)} references unknown product "
            f"{show_value(record.product_id)}"
        )
    seen_ids.add(record.id)
    return record


def parse_defect_log(text: str) -> list[DefectRecord]:
    """Parse a defect-log CSV document into records.

    The header row must match :data:`DEFECT_CSV_COLUMNS` exactly.  All
    problems are collected and reported together, each diagnostic
    prefixed with the 1-based data row it came from.
    """
    seen_ids: set[str] = set()
    names = {}
    return read_csv_table(
        text,
        DEFECT_CSV_COLUMNS,
        "defect log",
        lambda fields: _admit(_record_from_values(_csv_values(fields), names), seen_ids),
    )


def _series_row(fields: list[str]) -> tuple[float, int]:
    raw_start, raw_count = fields
    try:
        start_days = plain_number(float, raw_start)
    except ValueError:
        start_days = parse_timestamp(raw_start).timestamp() / 86400.0
    if not math.isfinite(start_days):
        raise ValidationError(f"bucket_start must be finite, got {show_value(raw_start)}")
    count = _csv_int(raw_count, "count must be an integer")
    if problem := count_problem("count", count):
        raise ValidationError(problem)
    return start_days, count


def parse_series(text: str) -> tuple[list[int], float | None]:
    """Parse a ``bucket_start,count`` CSV; return counts and inferred width.

    Starts may be ISO UTC timestamps or plain numbers (day offsets).
    Spacing must be uniform; the inferred width is in days, at most the
    widest bucket a timedelta holds, or None when a single row leaves it
    undetermined.
    """
    rows = read_csv_table(text, ("bucket_start", "count"), "series file", _series_row)
    if not rows:
        raise ValidationError("series file has no data rows")
    starts = [start for start, _ in rows]
    counts = [count for _, count in rows]
    if len(starts) == 1:
        return counts, None
    width = starts[1] - starts[0]
    if width <= 0:
        raise ValidationError("bucket_start values must be strictly increasing")
    if width > timedelta.max.days:
        raise ValidationError(
            f"bucket spacing of {width:g} days is wider than {timedelta.max.days} days"
        )
    # Each day offset carries up to an ulp of rounding, and each check
    # compares two differences of two starts.
    slack = 1e-6 * width + 4.0 * math.ulp(max(abs(starts[0]), abs(starts[-1])))
    for i in range(1, len(starts) - 1):
        gap = starts[i + 1] - starts[i]
        if abs(gap - width) > slack:
            raise ValidationError(
                f"bucket spacing is not uniform: gap after row {i + 1} is {gap:g} "
                f"days, expected {width:g}"
            )
    return counts, width


def _profile_from_dict(entry: object, seen: set[str]) -> ProductProfile:
    """Decode one product entry; ``seen`` holds the ids decoded so far.
    The profile checks its own fields; a null ``description`` reads as empty."""
    _check_keys(entry, _PRODUCT_KEYS)
    if entry.get("product_id") is None:
        raise ValidationError("product_id is required")
    if entry.get("description", "") is None:
        entry = {**entry, "description": ""}
    profile = ProductProfile(**entry)
    if profile.product_id in seen:
        raise ValidationError(f"duplicate product_id {show_value(profile.product_id)}")
    seen.add(profile.product_id)
    return profile


def parse_product_registry(text: str) -> list[ProductProfile]:
    """Parse a product registry JSON array into profiles."""
    data = _load_json(text, "product registry")
    if not isinstance(data, list):
        raise ValidationError("product registry must be a JSON array of objects")
    diagnostics: list[str] = []
    seen: set[str] = set()
    profiles = _decode_each(data, "entry {}", lambda e: _profile_from_dict(e, seen), diagnostics)
    refuse("product registry failed validation", *diagnostics)
    return profiles


def build_ledger(
    profiles: Sequence[ProductProfile], records: Sequence[DefectRecord]
) -> dict:
    """Combine profiles and records into one ledger document.

    Every record must reference a registered product; the set of
    record ids must be unique.
    """
    known = {p.product_id for p in profiles}
    seen: set[str] = set()
    diagnostics: list[str] = []
    for record in records:
        try:
            _admit(record, seen, known)
        except ValidationError as exc:
            diagnostics.append(str(exc))
    refuse("ledger failed validation", *diagnostics)
    return {
        "products": [p._asdict() for p in profiles],
        "defects": [_record_to_dict(r) for r in records],
    }


def dump_ledger(profiles: Sequence[ProductProfile], records: Sequence[DefectRecord]) -> str:
    """Serialize a validated ledger to JSON text."""
    return json.dumps(build_ledger(profiles, records), indent=2) + "\n"


def load_ledger(text: str) -> tuple[list[ProductProfile], list[DefectRecord]]:
    """Parse and validate a ledger JSON document."""
    data = _load_json(text, "ledger")
    if not isinstance(data, dict) or set(data) != {"products", "defects"}:
        raise ValidationError("ledger must be an object with 'products' and 'defects' keys")
    if not isinstance(data["products"], list) or not isinstance(data["defects"], list):
        raise ValidationError("ledger 'products' and 'defects' must be arrays")

    diagnostics: list[str] = []
    known: set[str] = set()
    profiles = _decode_each(
        data["products"], "products[{}]", lambda e: _profile_from_dict(e, known), diagnostics
    )
    seen_ids: set[str] = set()
    names = {}
    records = _decode_each(
        data["defects"],
        "defects[{}]",
        lambda e: _admit(_record_from_values(_entry_values(e), names), seen_ids, known),
        diagnostics,
    )
    refuse("ledger failed validation", *diagnostics)
    return profiles, records


def arrival_series(records: Sequence[DefectRecord], bucket_width: timedelta) -> tuple[int, ...]:
    """Bucket defect discovery times onto a uniform grid.

    Count ``i`` is the number of defects found in
    ``[origin + i*bucket_width, origin + (i+1)*bucket_width)``, where
    ``origin`` is the earliest ``found_at``; no records give no counts.
    A grid of more than :data:`MAX_BUCKETS` buckets is an error.  The
    counts always sum to the number of records.
    """
    if bucket_width <= timedelta(0):
        raise ValidationError(f"bucket_width must be positive, got {bucket_width}")
    if not records:
        return ()
    origin = min(r.found_at for r in records)
    indices = [(r.found_at - origin) // bucket_width for r in records]
    buckets = max(indices) + 1
    if buckets > MAX_BUCKETS:
        raise ValidationError(
            f"{buckets} buckets of width {bucket_width} exceed the limit of {MAX_BUCKETS}"
        )
    counts = [0] * buckets
    for i in indices:
        counts[i] += 1
    return tuple(counts)
