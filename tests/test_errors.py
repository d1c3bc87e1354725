"""Messages show over-long integers by digit count instead of raising."""

from __future__ import annotations

import pytest

from conftest import make_record
from defectlab import (
    ProcessParams,
    ProductProfile,
    SizePoint,
    ValidationError,
    defect_density,
    simulate_monte_carlo,
)
from defectlab.errors import show_int

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
