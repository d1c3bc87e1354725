"""Messages show over-long integers by digit count instead of raising, and
cut over-long values."""

from __future__ import annotations

import pytest

from conftest import make_record
from defectlab import (
    MetricsSummary,
    ProcessParams,
    ProductProfile,
    SizePoint,
    ValidationError,
    defect_density,
    parse_defect_log,
    parse_product_registry,
    parse_scatter,
    parse_series,
    simulate_monte_carlo,
    summarize,
)
from defectlab.errors import MAX_SHOWN, show_int, show_value

#: More digits than ``str()`` converts by default (4300).
LONG = 10**5000

AUDITED = ProcessParams(units=2182, injection_rate=0.07, removal_efficiency=0.75)


class TestShowInt:
    def test_convertible_integers_show_as_str(self):
        assert show_int(-12) == "-12"
        assert show_int(10**4300 - 1) == str(10**4300 - 1)

    def test_over_long_integers_show_their_digit_count(self):
        assert show_int(LONG) == "an integer of 5001 digits"
        assert show_int(-LONG) == "a negative integer of 5001 digits"


@pytest.mark.parametrize(("case", "call"), [
    ("ProcessParams units", lambda: ProcessParams(
        units=-LONG, injection_rate=0.07, removal_efficiency=0.75)),
    ("SizePoint issues", lambda: SizePoint(uf=1, issues=-LONG)),
    ("DefectRecord severity", lambda: make_record(severity=LONG)),
    ("DefectRecord fix_changes", lambda: make_record(fixed_offset_h=1.0, fix_changes=-LONG)),
    ("ProductProfile size", lambda: ProductProfile(product_id="m1", unique_formulas=-LONG)),
    ("simulate_monte_carlo trials", lambda: simulate_monte_carlo(AUDITED, -LONG, 1)),
    ("defect_density defects", lambda: defect_density(LONG, 1)),
    ("defect_density size", lambda: defect_density(1, LONG)),
    ("defect_density negative size", lambda: defect_density(1, -LONG)),
])
def test_over_long_integer_is_a_validation_error(case, call):
    with pytest.raises(ValidationError, match="integer of 5001 digits"):
        call()


class TestShowValue:
    def test_a_repr_that_fits_shows_whole(self):
        assert show_value("a'b") == repr("a'b")
        assert show_value(["1", "x"]) == "['1', 'x']"
        assert show_value("x" * (MAX_SHOWN - 2)) == repr("x" * (MAX_SHOWN - 2))

    def test_a_longer_repr_is_cut_and_marked(self):
        assert show_value("x" * (MAX_SHOWN - 1)) == (
            repr("x" * (MAX_SHOWN - 1))[:MAX_SHOWN] + f"... ({MAX_SHOWN + 1} characters)"
        )

    def test_integers_show_as_show_int_shows_them(self):
        assert show_value(-12) == "-12"
        assert show_value(True) == "True"
        assert show_value(LONG) == "an integer of 5001 digits"


#: More than any message should echo.
HUGE = "z" * 50_000


@pytest.mark.parametrize(("case", "call"), [
    ("series count", lambda: parse_series(f"bucket_start,count\n0,{HUGE}\n")),
    ("series start", lambda: parse_series(f"bucket_start,count\n{HUGE},1\n")),
    ("scatter row", lambda: parse_scatter(f"uf,issues\n{HUGE},1\n")),
    ("header", lambda: parse_defect_log(f"{HUGE}\n")),
    ("registry duplicate", lambda: parse_product_registry(
        f'[{{"product_id": "{HUGE}", "kloc": 1}}, {{"product_id": "{HUGE}", "kloc": 1}}]'
    )),
    ("profile", lambda: ProductProfile(product_id=HUGE, kloc=-1.0)),
    ("records of another product", lambda: summarize(
        [make_record(rid=HUGE, product_id="m2")], ProductProfile(product_id=HUGE, kloc=1.0)
    )),
    ("metrics summary", lambda: MetricsSummary(product_id=HUGE, defect_count=-1)),
])
def test_decoder_messages_cut_an_over_long_value(case, call):
    with pytest.raises(ValidationError) as err:
        call()
    assert "... (" in str(err.value)
    assert len(str(err.value)) < 400
