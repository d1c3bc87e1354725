"""The frozen value types keep a frozen dataclass's contract.

Each type derives from ``errors.Value`` instead of using
``@dataclass(frozen=True)``.  Each is checked here against a reference
that ``dataclasses.make_dataclass`` builds from the same fields and
defaults, which are spelled out below rather than read from the class.
``DefectRecord`` keeps its fields in slots, so its reference is a
slotted frozen dataclass.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from datetime import datetime, timedelta, timezone

import pytest

from defectlab.errors import ValidationError
from defectlab.ledger import DefectRecord, ProductProfile
from defectlab.metrics import MetricsSummary
from defectlab.rayleigh import RayleighFit
from defectlab.revisions import (
    DEFAULT_REMOVAL_EFFICIENCIES,
    McOutcome,
    ProcessParams,
    RevisionGrid,
    RevisionTrajectory,
)
from defectlab.sizing import LinearSizeModel, SizePoint, SqrtSizeModel

PARAMS = ProcessParams(10, 0.1, 0.5)
FOUND = datetime(2004, 3, 1, tzinfo=timezone.utc)
CELLS = tuple(tuple(range(1, 9)) for _ in DEFAULT_REMOVAL_EFFICIENCIES)

#: For each type: its fields in order, as (name, example value); the
#: defaults of the fields that have one; and one (field, value) that
#: its validation refuses.
CASES = [
    (
        DefectRecord,
        [("id", "d1"), ("product_id", "m1"), ("phase_injected", "build"),
         ("phase_found", "review"), ("found_at", FOUND),
         ("fixed_at", FOUND + timedelta(hours=5)), ("severity", 2), ("status", "fixed"),
         ("fix_changes", None)],
        {"fix_changes": None},
        ("severity", 9),
    ),
    (
        ProductProfile,
        [("product_id", "m1"), ("unique_formulas", 2182), ("kloc", 12.5),
         ("function_points", None), ("description", "")],
        {"unique_formulas": None, "kloc": None, "function_points": None, "description": ""},
        ("kloc", -1.0),
    ),
    (
        MetricsSummary,
        [("product_id", "m1"), ("defect_count", 151), ("density_per_uf", 0.07),
         ("density_per_kloc", None), ("injection_rate", 0.07), ("removal_efficiency", None),
         ("removal_rate", 2.5)],
        {"density_per_uf": None, "density_per_kloc": None, "injection_rate": None,
         "removal_efficiency": None, "removal_rate": None},
        ("defect_count", -1),
    ),
    (
        RayleighFit,
        [("k_total", 120.0), ("sigma", 6.5), ("sse", 14.25), ("buckets_used", 12)],
        {},
        ("buckets_used", 2),
    ),
    (
        ProcessParams,
        [("units", 2182), ("injection_rate", 0.07), ("removal_efficiency", 0.75),
         ("threshold", 0.5)],
        {"threshold": 0.5},
        ("injection_rate", 1.5),
    ),
    (
        RevisionTrajectory,
        [("params", PARAMS), ("expected_defects", (1.0, 0.55, 0.3025))],
        {},
        ("expected_defects", ()),
    ),
    (
        McOutcome,
        [("trials", 3), ("seed", 7), ("histogram", {4: 1, 5: 1, 6: 1}), ("censored", 0)],
        {"censored": 0},
        ("censored", 4),
    ),
    (
        RevisionGrid,
        [("units", 2000), ("threshold", 0.5), ("cells", CELLS)],
        {},
        ("cells", CELLS[1:]),
    ),
    (LinearSizeModel, [("intercept", 62.0), ("slope", 0.0408)], {}, ("slope", -1.0)),
    (SqrtSizeModel, [("coefficient", 2.6)], {}, ("coefficient", -1.0)),
    (SizePoint, [("uf", 2182), ("issues", 151)], {}, ("issues", -1)),
]


def _hash(value: object) -> object:
    try:
        return hash(value)
    except TypeError as exc:  # McOutcome holds a dict
        return str(exc)


@pytest.mark.parametrize(("cls", "fields", "defaults", "bad"), CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_type_keeps_the_frozen_dataclass_contract(cls, fields, defaults, bad):
    slotted = "__slots__" in cls.__dict__
    reference = dataclasses.make_dataclass(
        cls.__name__,
        [(name, object, dataclasses.field(default=defaults[name])) if name in defaults
         else (name, object) for name, _ in fields],
        frozen=True,
        slots=slotted,
    )
    names = [name for name, _ in fields]
    values = [value for _, value in fields]
    kwargs = dict(fields)
    # Default construction leaves out each field whose example is its default.
    given = {name: value for name, value in fields
             if name not in defaults or defaults[name] != value}
    assert len(given) < len(fields) or not defaults
    assert cls.__match_args__ == reference.__match_args__ == tuple(names)

    # Construction: positional, keyword and default agree with the reference.
    for build in (lambda c: c(*values), lambda c: c(**kwargs), lambda c: c(**given)):
        value, expected = build(cls), build(reference)
        assert repr(value) == repr(expected)
        assert value == cls(*values)
        assert expected == reference(*values)
        assert _hash(value) == _hash(expected)
        assert [getattr(value, name) for name in names] == values
        if slotted:
            assert cls.__slots__ == tuple(names)
            assert not hasattr(value, "__dict__")
        else:
            assert list(value.__dict__.items()) == fields
        # The one dict form: a new dict each call, fields in order.
        assert list(value._asdict().items()) == fields
        value._asdict().clear()
        assert value == cls(*values)
    value = cls(*values)
    assert value.__eq__(reference(*values)) is NotImplemented
    assert value != reference(*values)
    if isinstance(values[0], str):
        assert cls(**{**kwargs, names[0]: values[0] + "x"}) != value

    # A missing, unknown, repeated or extra argument.
    with pytest.raises(TypeError):
        cls(**{name: v for name, v in kwargs.items() if name != names[0]})
    with pytest.raises(TypeError):
        cls(*values, colour="red")
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, None)

    # Frozen, for a field and for a name that is not one.
    for name in (names[-1], "colour"):
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert value == cls(*values)

    # Pickle at every protocol, copy and deepcopy.
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) == value
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value

    # Validation still runs on construction.
    with pytest.raises(ValidationError):
        cls(**{**kwargs, bad[0]: bad[1]})


#: Each way to rebuild a value: copy, deepcopy and pickle at every protocol.
REBUILDS = {"copy": copy.copy, "deepcopy": copy.deepcopy} | {
    f"pickle {protocol}": lambda value, protocol=protocol: pickle.loads(
        pickle.dumps(value, protocol)
    )
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
}


@pytest.mark.parametrize(("cls", "fields", "defaults", "bad"), CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_every_rebuild_goes_through_the_constructor(cls, fields, defaults, bad):
    # A field changed behind the constructor, past its frozen __setattr__,
    # is refused again by each rebuild, which runs the constructor's checks.
    value = cls(*[example for _, example in fields])
    name, wrong = bad
    if "__slots__" in cls.__dict__:
        getattr(cls, name).__set__(value, wrong)
    else:
        vars(value)[name] = wrong
    assert getattr(value, name) == wrong
    kept = []
    for how, rebuild in REBUILDS.items():
        try:
            rebuild(value)
        except ValidationError:
            continue
        kept.append(how)
    assert kept == []

#: ``SizePoint(2182, 151)`` pickled at protocols 0, 2 and 5 before values
#: were rebuilt through their constructor: a new object and its saved
#: ``__dict__``.  They still load, because ``Value`` has no ``__setstate__``.
OLD_PICKLES = [
    b"ccopy_reg\n_reconstructor\np0\n(cdefectlab.sizing\nSizePoint\np1\nc__builtin__\n"
    b"object\np2\nNtp3\nRp4\n(dp5\nVuf\np6\nI2182\nsVissues\np7\nI151\nsb.",
    b"\x80\x02cdefectlab.sizing\nSizePoint\nq\x00)\x81q\x01}q\x02(X\x02\x00\x00\x00ufq\x03"
    b"M\x86\x08X\x06\x00\x00\x00issuesq\x04K\x97ub.",
    b"\x80\x05\x95=\x00\x00\x00\x00\x00\x00\x00\x8c\x10defectlab.sizing\x94\x8c\tSizePoint"
    b"\x94\x93\x94)\x81\x94}\x94(\x8c\x02uf\x94M\x86\x08\x8c\x06issues\x94K\x97ub.",
]


@pytest.mark.parametrize("data", OLD_PICKLES, ids=["protocol 0", "protocol 2", "protocol 5"])
def test_a_pickle_of_a_saved_dict_still_loads(data):
    assert pickle.loads(data) == SizePoint(2182, 151)
