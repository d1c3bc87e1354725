"""Messages show over-long integers by digit count instead of raising, cut
over-long values, and word a value just outside its range the same way at
every site that checks that range; a site that finds several problems lists
them all, in the order it checks them; every public number refuses, with
ValidationError, a value that it cannot hold."""

from __future__ import annotations

import math
import sys

import pytest

from conftest import make_record
from defectlab import (
    LinearSizeModel,
    McOutcome,
    MetricsSummary,
    ProcessParams,
    ProductProfile,
    RayleighFit,
    RevisionGrid,
    RevisionTrajectory,
    SizePoint,
    SqrtSizeModel,
    ValidationError,
    arrival_chart,
    build_ledger,
    defect_density,
    expected_bucket_counts,
    fit_arrival,
    infer_efficiency,
    initial_defects,
    ledger,
    linear_estimate,
    load_ledger,
    parse_defect_log,
    parse_product_registry,
    parse_scatter,
    parse_series,
    rayleigh_cdf,
    remaining_defects,
    removal_efficiency,
    revision_table,
    simulate_monte_carlo,
    sqrt_estimate,
    summarize,
    time_to_threshold,
)
from defectlab.errors import MAX_BUCKETS, MAX_COUNT, MAX_SHOWN, _digit_count, show_int, show_value

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

    @pytest.mark.parametrize("k", [512, 1024, 2048])
    def test_digit_count_corrects_a_logarithm_rounded_below_a_power_of_ten(self, k):
        assert int(math.log10(10**k)) + 1 == k  # one short of 10**k's k + 1 digits
        assert _digit_count(10**k) == k + 1


@pytest.mark.parametrize(("case", "call"), [
    ("ProcessParams units", lambda: ProcessParams(
        units=-LONG, injection_rate=0.07, removal_efficiency=0.75)),
    ("ProcessParams rate", lambda: ProcessParams(
        units=2182, injection_rate=LONG, removal_efficiency=0.75)),
    ("MetricsSummary rate", lambda: MetricsSummary(
        product_id="m1", defect_count=1, removal_efficiency=LONG)),
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


#: Just past the top of a count's range, which MAX_COUNT bounds everywhere.
OVER = MAX_COUNT + 1
#: The least sigma whose 2*sigma*sigma is a normal float.
SIGMA_LEAST = math.sqrt(sys.float_info.min / 2)
TOO_MANY = f"must be <= {MAX_COUNT}, got {OVER}"
NOT_A_COUNT = f"must be <= {MAX_COUNT}, got nan"
PROCESS = "invalid process parameters\n  units"
PROFILE = "invalid product profile 'm1'\n  "
SUMMARY = "invalid metrics summary for 'm1'\n  "
SIZES = ("unique_formulas", "kloc", "function_points")


def _params(units: int) -> ProcessParams:
    return ProcessParams(units=units, injection_rate=0.2, removal_efficiency=0.5)


def _profile(size: str, value: int) -> ProductProfile:
    return ProductProfile(product_id="m1", **{size: value})


#: A call with a value just outside its range, or NaN, which is within
#: none, by case, and its message; tests/test_ledger.py and tests/test_cli.py pin the series count's -1,
#: fix_changes past MAX_COUNT and the grid's 0 units.
OUT_OF_RANGE = {case: (call, message) for case, call, message in [
    ("series count over", lambda: parse_series(f"bucket_start,count\n0,{OVER}\n"),
     f"series file failed validation\n  row 1: count {TOO_MANY}"),
    ("fix_changes -1", lambda: make_record(fixed_offset_h=1.0, fix_changes=-1),
     "invalid defect record 'd1'\n  fix_changes must be >= 0, got -1"),
    ("density defects -1", lambda: defect_density(-1, 1), "defects must be >= 0, got -1"),
    ("density defects over", lambda: defect_density(OVER, 1), f"defects {TOO_MANY}"),
    ("density size 0", lambda: defect_density(1, 0), "size must be positive, got 0"),
    ("density size over", lambda: defect_density(1, OVER), f"size {TOO_MANY}"),
    ("process units 0", lambda: _params(0), f"{PROCESS} must be >= 1, got 0"),
    ("process units over", lambda: _params(OVER), f"{PROCESS} {TOO_MANY}"),
    ("build units 0", lambda: initial_defects(0, 0.2),
     "invalid build\n  units must be >= 1, got 0"),
    ("build units over", lambda: initial_defects(OVER, 0.2),
     f"invalid build\n  units {TOO_MANY}"),
    ("grid units over", lambda: revision_table(OVER),
     f"invalid grid parameters\n  units {TOO_MANY}"),
    ("bucket count over", lambda: expected_bucket_counts(100.0, 3.0, MAX_BUCKETS + 1),
     f"buckets must be <= {MAX_BUCKETS}, got {MAX_BUCKETS + 1}"),
    ("point issues -1", lambda: SizePoint(uf=1, issues=-1), "issues must be >= 0, got -1"),
    ("point issues over", lambda: SizePoint(uf=1, issues=OVER), f"issues {TOO_MANY}"),
    ("point uf 0", lambda: SizePoint(uf=0, issues=1), "uf must be positive, got 0"),
    ("point uf over", lambda: SizePoint(uf=OVER, issues=1), f"uf {TOO_MANY}"),
    ("linear uf 0", lambda: linear_estimate(0), "uf must be positive, got 0"),
    ("linear uf over", lambda: linear_estimate(OVER), f"uf {TOO_MANY}"),
    ("sqrt uf 0", lambda: sqrt_estimate(0), "uf must be positive, got 0"),
    ("sqrt uf over", lambda: sqrt_estimate(OVER), f"uf {TOO_MANY}"),
    ("density defects nan", lambda: defect_density(math.nan, 1), f"defects {NOT_A_COUNT}"),
    ("process units nan", lambda: _params(math.nan), f"{PROCESS} {NOT_A_COUNT}"),
    ("build units nan", lambda: initial_defects(math.nan, 0.2),
     f"invalid build\n  units {NOT_A_COUNT}"),
    ("grid units nan", lambda: revision_table(math.nan),
     f"invalid grid parameters\n  units {NOT_A_COUNT}"),
    ("point issues nan", lambda: SizePoint(uf=1, issues=math.nan), f"issues {NOT_A_COUNT}"),
    ("point uf nan", lambda: SizePoint(uf=math.nan, issues=1), f"uf {NOT_A_COUNT}"),
    ("linear uf nan", lambda: linear_estimate(math.nan), f"uf {NOT_A_COUNT}"),
    ("sqrt uf nan", lambda: sqrt_estimate(math.nan), f"uf {NOT_A_COUNT}"),
    *((f"profile {size} 0", lambda size=size: _profile(size, 0),
       f"{PROFILE}{size}: size must be positive, got 0") for size in SIZES),
    *((f"profile {size} over", lambda size=size: _profile(size, OVER),
       f"{PROFILE}{size} {TOO_MANY}") for size in SIZES),
    *((f"summary {rate} {value}",
       lambda rate=rate, value=value: MetricsSummary(product_id="m1", defect_count=1,
                                                     **{rate: value}),
       f"{SUMMARY}{rate} must be within [0, 1], got {value}")
      for rate in ("injection_rate", "removal_efficiency") for value in (math.nan, 1.5)),
    # 2*sigma*sigma, the curve's scale, below the smallest normal float.
    ("fit sigma subnormal", lambda: RayleighFit(100.0, 1e-320, 1.0, 5),
     f"invalid arrival fit\n  sigma must be >= {SIGMA_LEAST}, got 1e-320"),
    ("cdf sigma 1e-200", lambda: rayleigh_cdf(1.0, 100.0, 1e-200),
     f"sigma must be >= {SIGMA_LEAST}, got 1e-200"),
    ("bucket counts sigma subnormal", lambda: expected_bucket_counts(100.0, 1e-320, 5),
     f"sigma must be >= {SIGMA_LEAST}, got 1e-320"),
    # Past the cap that series files hold counts to.
    ("fit count 1e300", lambda: fit_arrival([1.0, 1e300, 2.0]),
     f"bucket counts must be <= {MAX_COUNT}"),
    ("fit count 10**300", lambda: fit_arrival([1, 5, 10**300, 2]),
     f"bucket counts must be <= {MAX_COUNT}"),
    ("fit count over", lambda: fit_arrival([1, 5, OVER, 2]),
     f"bucket counts must be <= {MAX_COUNT}"),
    ("chart count nan", lambda: arrival_chart([1, math.nan]),
     "bucket counts must be finite and >= 0"),
    ("chart fitted inf", lambda: arrival_chart([1, 2], fitted=[1.0, math.inf]),
     "fitted values must be finite and >= 0"),
]}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_a_value_just_outside_its_range_gets_its_message(case):
    call, message = OUT_OF_RANGE[case]
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


def test_the_least_sigma_is_where_its_scale_leaves_normal_floats():
    assert 2.0 * SIGMA_LEAST * SIGMA_LEAST >= sys.float_info.min
    below = math.nextafter(SIGMA_LEAST, 0.0)
    assert 2.0 * below * below < sys.float_info.min
    assert RayleighFit(100.0, SIGMA_LEAST, 1.0, 5).sigma == SIGMA_LEAST
    with pytest.raises(ValidationError, match=f"sigma must be >= {SIGMA_LEAST}, got {below}"):
        RayleighFit(100.0, below, 1.0, 5)


def test_a_count_at_the_cap_is_fitted():
    fit = fit_arrival([MAX_COUNT // 4, MAX_COUNT, MAX_COUNT // 2, 1])
    assert fit.k_total > MAX_COUNT


#: A call that finds several problems at once, by the site that lists
#: them, and its whole message: each problem, in the order it is checked.
MANY_PROBLEMS = {case: (call, message) for case, call, message in [
    ("ProcessParams", lambda: ProcessParams(0, 2.0, math.nan, 1e-320),
     "invalid process parameters\n  units must be >= 1, got 0\n"
     "  injection_rate must be within [0, 1], got 2.0\n"
     "  removal_efficiency must be within [0, 1], got nan\n"
     "  threshold must be >= 2.2250738585072014e-308, got 1e-320"),
    ("RevisionTrajectory empty", lambda: RevisionTrajectory(AUDITED, ()),
     "invalid revision trajectory\n  trajectory must hold at least the initial build"),
    ("RevisionTrajectory", lambda: RevisionTrajectory(AUDITED, (math.nan, 5.0, 6.0)),
     "invalid revision trajectory\n  expected defect counts must be finite and >= 0\n"
     "  last expected count 6.0 has not reached threshold 0.5\n"
     "  expected defects must strictly decrease"),
    ("McOutcome", lambda: McOutcome(trials=0, seed=1, histogram={1: 2}, censored=5),
     "invalid Monte Carlo outcome\n  trials must be >= 1, got 0\n"
     "  histogram frequencies sum to 2, expected 0\n  censored must be within 0..trials, got 5"),
    ("initial_defects", lambda: initial_defects(0, 1.5),
     "invalid build\n  units must be >= 1, got 0\n  injection_rate must be within [0, 1], got 1.5"),
    ("RevisionGrid", lambda: RevisionGrid(0, 0.0, ()),
     "invalid grid parameters\n  units must be >= 1, got 0\n  threshold must be positive, got 0.0"),
    ("revision_table", lambda: revision_table(0, 0.0),
     "invalid grid parameters\n  units must be >= 1, got 0\n  threshold must be positive, got 0.0"),
    ("infer_efficiency", lambda: infer_efficiency(math.nan, 1, 1.5, -1.0),
     "invalid inverse-estimation inputs\n  initial defects must be positive, got nan\n"
     "  revisions must be >= 2, got 1\n  injection_rate must be within [0, 1], got 1.5\n"
     "  injection_rate must be < 1 for any removal to stick\n"
     "  threshold must be positive, got -1.0"),
    ("MetricsSummary", lambda: MetricsSummary("m1", -1, -1.0, math.inf, 1.5, math.nan, -0.5),
     f"{SUMMARY}defect_count must be >= 0, got -1\n"
     "  injection_rate must be within [0, 1], got 1.5\n"
     "  removal_efficiency must be within [0, 1], got nan\n"
     "  density_per_uf must be >= 0, got -1.0\n  density_per_kloc must be >= 0, got inf\n"
     "  removal_rate must be >= 0, got -0.5"),
    ("RayleighFit", lambda: RayleighFit(0.0, math.nan, -1.0, 2),
     "invalid arrival fit\n  k_total must be positive, got 0.0\n"
     "  sigma must be positive, got nan\n  sse must be >= 0, got -1.0\n"
     "  buckets_used must be >= 3, got 2"),
    ("ProductProfile types", lambda: ProductProfile(1, 1.5, "x", True, None),
     "invalid product profile\n  product_id must be str, got int\n"
     "  unique_formulas must be int or null, got float\n"
     "  kloc must be float or int or null, got str\n"
     "  function_points must be int or null, got bool\n  description must be str, got null"),
    ("ProductProfile", lambda: ProductProfile("", None, None, None),
     "invalid product profile ''\n  product_id must be non-empty\n"
     "  at least one size measure is required"),
    ("ProductProfile sizes", lambda: ProductProfile("", 0, -1.0, 10**20),
     "invalid product profile ''\n  product_id must be non-empty\n"
     "  unique_formulas: size must be positive, got 0\n  kloc: size must be positive, got -1.0\n"
     f"  function_points must be <= {MAX_COUNT}, got {10**20}"),
    ("read_csv_table", lambda: parse_defect_log(
        f"{','.join(ledger.DEFECT_CSV_COLUMNS)}\n1,2\nd1,p1,design,review,x,,1,open,\n"
    ), "defect log failed validation\n  row 1: expected 9 fields, got 2\n"
       "  row 2: invalid timestamp 'x'"),
    ("parse_product_registry", lambda: parse_product_registry(
        '[{"product_id": "a", "kloc": 0}, 3, {"product_id": "a", "kloc": 1},'
        ' {"product_id": "a", "kloc": 1}]'
    ), "product registry failed validation\n  entry 0: kloc: size must be positive, got 0\n"
       "  entry 1: expected an object\n  entry 3: duplicate product_id 'a'"),
    ("build_ledger", lambda: build_ledger(
        [ProductProfile("m1", kloc=1.0)],
        [make_record(rid="d1"), make_record(rid="d2", product_id="p2"), make_record(rid="d1")],
    ), "ledger failed validation\n  defect 'd2' references unknown product 'p2'\n"
       "  duplicate defect id 'd1'"),
    ("load_ledger", lambda: load_ledger(
        '{"products": [{"product_id": "m1", "kloc": 0}, {"product_id": "m2", "kloc": 1}],'
        ' "defects": [3, {"id": 1}]}'
    ), "ledger failed validation\n  products[0]: kloc: size must be positive, got 0\n"
       "  defects[0]: expected an object\n  defects[1]: defect entry missing keys: product_id, "
       "phase_injected, phase_found, found_at, fixed_at, severity, status, fix_changes"),
]}


@pytest.mark.parametrize("case", MANY_PROBLEMS)
def test_several_problems_are_listed_together_in_order(case):
    call, message = MANY_PROBLEMS[case]
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message
    assert err.value.diagnostics == tuple(line[2:] for line in message.split("\n")[1:])


#: Numbers that no count or real parameter holds: past float range either
#: way, NaN and both infinities.
UNHELD = {"10**400": 10**400, "-10**400": -10**400,
          "nan": math.nan, "inf": math.inf, "-inf": -math.inf}

FIT = RayleighFit(k_total=100.0, sigma=3.0, sse=1.0, buckets_used=5)


def _with(call, **valid):
    """``call`` with valid keyword arguments, any of which a case replaces."""
    return lambda **bad: call(**{**valid, **bad})


#: Each public function or value type that takes a number, with its
#: numeric parameters; seeds, which numpy takes at any size, are left out.
NUMBER_TAKERS = {
    "ProductProfile": (_with(ProductProfile, product_id="m1", kloc=1.0),
                       ("unique_formulas", "kloc", "function_points")),
    "DefectRecord": (_with(make_record, fixed_offset_h=1.0, fix_changes=1),
                     ("severity", "fix_changes")),
    "MetricsSummary": (_with(MetricsSummary, product_id="m1", defect_count=1),
                       ("defect_count", "density_per_uf", "density_per_kloc",
                        "injection_rate", "removal_efficiency", "removal_rate")),
    "defect_density": (_with(defect_density, defects=1, size=1.0), ("defects", "size")),
    "removal_efficiency": (_with(removal_efficiency, removed_by_process=1, total_present=2),
                           ("removed_by_process", "total_present")),
    "RayleighFit": (_with(RayleighFit, k_total=100.0, sigma=3.0, sse=1.0, buckets_used=5),
                    ("k_total", "sigma", "sse", "buckets_used")),
    "rayleigh_cdf": (_with(rayleigh_cdf, t=1.0, k_total=100.0, sigma=3.0),
                     ("t", "k_total", "sigma")),
    "expected_bucket_counts": (_with(expected_bucket_counts, k_total=100.0, sigma=3.0, buckets=5),
                               ("k_total", "sigma", "buckets")),
    "fit_arrival": (lambda count=1: fit_arrival([1, 5, count, 2]), ("count",)),
    "arrival_chart": (lambda count=1, fitted=1.0: arrival_chart([2, count], [1.5, fitted]),
                      ("count", "fitted")),
    "remaining_defects": (_with(remaining_defects, fit=FIT, t=1.0), ("t",)),
    "time_to_threshold": (_with(time_to_threshold, fit=FIT, residual_threshold=1.0),
                          ("residual_threshold",)),
    "ProcessParams": (_with(ProcessParams, units=2182, injection_rate=0.07,
                            removal_efficiency=0.75),
                      ("units", "injection_rate", "removal_efficiency", "threshold")),
    "RevisionTrajectory": (lambda defects=5.0: RevisionTrajectory(AUDITED, (defects, 0.1)),
                           ("defects",)),
    "McOutcome": (_with(McOutcome, trials=3, seed=1, histogram={2: 3}), ("trials", "censored")),
    "RevisionGrid": (_with(RevisionGrid, units=2000, threshold=0.5,
                           cells=revision_table(2000).cells),
                     ("units", "threshold")),
    "initial_defects": (_with(initial_defects, units=2182, injection_rate=0.07),
                        ("units", "injection_rate")),
    "revision_table": (_with(revision_table, units=2000), ("units", "threshold")),
    "simulate_monte_carlo": (_with(simulate_monte_carlo, params=AUDITED, trials=10, seed=1),
                             ("trials",)),
    "infer_efficiency": (_with(infer_efficiency, initial=150.0, revisions=6,
                               injection_rate=0.07),
                         ("initial", "revisions", "injection_rate", "threshold")),
    "LinearSizeModel": (_with(LinearSizeModel, intercept=62.0, slope=0.0408),
                        ("intercept", "slope")),
    "SqrtSizeModel": (_with(SqrtSizeModel, coefficient=2.6), ("coefficient",)),
    "SizePoint": (_with(SizePoint, uf=2182, issues=151), ("uf", "issues")),
    "linear_estimate": (_with(linear_estimate, uf=2182), ("uf",)),
    "sqrt_estimate": (_with(sqrt_estimate, uf=2182), ("uf",)),
}


def _unheld_cases():
    for name, (call, parameters) in NUMBER_TAKERS.items():
        for parameter in parameters:
            for shown, value in UNHELD.items():
                # Buckets are capped far below 10**400, which would take
                # until memory runs out to refuse if they were not.
                if parameter == "buckets" and shown == "10**400":
                    shown, value = "MAX_BUCKETS + 1", MAX_BUCKETS + 1
                yield pytest.param(call, parameter, value, id=f"{name} {parameter} {shown}")


def test_the_valid_calls_of_the_number_table_succeed():
    for call, _parameters in NUMBER_TAKERS.values():
        call()


@pytest.mark.parametrize(("call", "parameter", "value"), _unheld_cases())
def test_every_public_number_refuses_what_it_cannot_hold(call, parameter, value):
    with pytest.raises(ValidationError):
        call(**{parameter: value})


def test_expected_bucket_counts_takes_as_many_buckets_as_a_series_holds():
    assert ledger.MAX_BUCKETS == MAX_BUCKETS
    assert len(expected_bucket_counts(100.0, 3.0, MAX_BUCKETS)) == MAX_BUCKETS
