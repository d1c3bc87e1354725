"""Size-based issue estimators and least-squares fits."""

from __future__ import annotations

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectlab import (
    LinearSizeModel,
    NegativeInterceptWarning,
    SizePoint,
    SqrtSizeModel,
    ValidationError,
    fit_linear,
    fit_sqrt,
    linear_estimate,
    parse_scatter,
    residual_sum_of_squares,
    sqrt_estimate,
)
from defectlab.errors import MAX_COUNT
from defectlab.sizing import DEFAULT_LINEAR_MODEL, DEFAULT_SQRT_MODEL


class TestEstimates:
    def test_linear_reproduces_the_audit_average(self):
        assert linear_estimate(2182) == pytest.approx(151.0256, abs=1e-9)
        assert linear_estimate(2182) == pytest.approx(151, abs=1)

    def test_sqrt_near_the_audit_average(self):
        assert sqrt_estimate(2182) == pytest.approx(121.45089542691728, abs=1e-9)
        assert sqrt_estimate(2182) == pytest.approx(121.5, abs=0.1)

    def test_linear_with_explicit_model(self):
        model = LinearSizeModel(intercept=10.0, slope=0.5)
        assert linear_estimate(100, model) == 60.0

    def test_sqrt_with_explicit_model(self):
        model = SqrtSizeModel(coefficient=3.0)
        assert sqrt_estimate(16, model) == 12.0

    def test_default_constants_are_wired_in(self):
        assert DEFAULT_LINEAR_MODEL == LinearSizeModel(intercept=62.0, slope=0.0408)
        assert DEFAULT_SQRT_MODEL == SqrtSizeModel(coefficient=2.6)
        # The slope as printed alongside the audit, 0.41, is wildly
        # inconsistent with the audit's own averages; with it, the
        # average-sized model would be predicted to hold ~957 issues
        # instead of ~151.
        bad = 62.0 + 0.41 * 2182
        assert bad == pytest.approx(956.62)
        assert abs(bad - 151) > 500

    def test_nonpositive_uf_rejected(self):
        with pytest.raises(ValidationError, match="uf must be positive"):
            linear_estimate(0)
        with pytest.raises(ValidationError, match="uf must be positive"):
            sqrt_estimate(-5)

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_both_estimators_are_monotone_in_size(self, a, b):
        lo, hi = sorted((a, b))
        assert linear_estimate(lo) <= linear_estimate(hi)
        assert sqrt_estimate(lo) <= sqrt_estimate(hi)


class TestModelTypes:
    def test_negative_slope_rejected(self):
        with pytest.raises(ValidationError, match="slope"):
            LinearSizeModel(intercept=5.0, slope=-0.1)

    def test_non_finite_intercept_rejected(self):
        with pytest.raises(ValidationError) as caught:
            LinearSizeModel(intercept=math.nan, slope=0.5)
        assert str(caught.value) == "model parameters must be finite"

    def test_negative_intercept_is_representable(self):
        # Fits may legitimately produce one; only the slope sign is policed.
        assert LinearSizeModel(intercept=-4.0, slope=0.2).intercept == -4.0

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValidationError, match="coefficient"):
            SqrtSizeModel(coefficient=-1.0)

    def test_size_point_validation(self):
        with pytest.raises(ValidationError, match="uf"):
            SizePoint(uf=0, issues=3)
        with pytest.raises(ValidationError, match="issues"):
            SizePoint(uf=10, issues=-1)

    def test_counts_above_the_ceiling_rejected(self):
        SizePoint(uf=MAX_COUNT, issues=MAX_COUNT)
        with pytest.raises(ValidationError, match="uf must be <="):
            SizePoint(uf=MAX_COUNT + 1, issues=3)
        with pytest.raises(ValidationError, match="issues must be <="):
            SizePoint(uf=10, issues=MAX_COUNT + 1)
        with pytest.raises(ValidationError, match="uf must be <="):
            linear_estimate(MAX_COUNT + 1)
        with pytest.raises(ValidationError, match="uf must be <="):
            sqrt_estimate(MAX_COUNT + 1)


class TestFitLinear:
    def test_recovers_a_noiseless_line_exactly(self):
        points = [
            SizePoint(uf=uf, issues=round(62 + 0.0408 * uf))
            for uf in (1250, 2500, 3750, 5000)
        ]
        # Integer-rounded issues happen to sit exactly on a line here.
        model = fit_linear(points)
        assert model.slope == pytest.approx(0.0408, abs=1e-4)
        assert model.intercept == pytest.approx(62.0, abs=0.5)

    def test_two_point_fit_with_negative_intercept_warns(self):
        points = [SizePoint(uf=100, issues=10), SizePoint(uf=200, issues=30)]
        with pytest.warns(NegativeInterceptWarning, match="-10"):
            model = fit_linear(points)
        assert model.slope == pytest.approx(0.2)
        assert model.intercept == pytest.approx(-10.0)

    def test_negative_fitted_slope_rejected(self):
        points = [SizePoint(uf=100, issues=30), SizePoint(uf=200, issues=10)]
        with pytest.raises(ValidationError, match="slope"):
            fit_linear(points)

    def test_fewer_than_two_distinct_sizes_rejected(self):
        with pytest.raises(ValidationError, match="2 distinct"):
            fit_linear([SizePoint(uf=100, issues=10)])
        with pytest.raises(ValidationError, match="2 distinct"):
            fit_linear([SizePoint(uf=100, issues=10), SizePoint(uf=100, issues=20)])

    @given(
        st.lists(
            st.tuples(st.integers(1, 5000), st.integers(0, 2000)),
            min_size=2,
            max_size=30,
        ).filter(lambda pairs: len({uf for uf, _ in pairs}) >= 2)
    )
    @settings(max_examples=50)
    def test_fit_passes_through_the_sample_means(self, pairs):
        points = [SizePoint(uf=uf, issues=issues) for uf, issues in pairs]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NegativeInterceptWarning)
                model = fit_linear(points)
        except ValidationError:
            return  # negatively-sloped scatters are rejected by the type
        mean_x = sum(p.uf for p in points) / len(points)
        mean_y = sum(p.issues for p in points) / len(points)
        assert model.intercept + model.slope * mean_x == pytest.approx(mean_y, abs=1e-6)

    def test_residuals_sum_to_zero_for_an_ols_line(self):
        points = [
            SizePoint(uf=uf, issues=issues)
            for uf, issues in ((120, 70), (480, 85), (900, 98), (2100, 145), (4000, 230))
        ]
        model = fit_linear(points)
        residual_total = sum(
            p.issues - linear_estimate(p.uf, model) for p in points
        )
        assert abs(residual_total) < 1e-6 * sum(p.issues for p in points)


class TestFitSqrt:
    def test_single_point(self):
        model = fit_sqrt([SizePoint(uf=2182, issues=151)])
        assert model.coefficient == pytest.approx(151 / math.sqrt(2182))

    def test_exact_recovery_on_perfect_squares(self):
        # issues = 2.6 * sqrt(uf) lands on integers for these squares.
        points = [
            SizePoint(uf=25, issues=13),
            SizePoint(uf=100, issues=26),
            SizePoint(uf=400, issues=52),
        ]
        assert fit_sqrt(points).coefficient == pytest.approx(2.6, abs=1e-12)

    def test_all_zero_issues_give_zero_coefficient(self):
        points = [SizePoint(uf=10, issues=0), SizePoint(uf=90, issues=0)]
        assert fit_sqrt(points).coefficient == 0.0

    def test_no_points_rejected(self):
        with pytest.raises(ValidationError, match="at least 1 point"):
            fit_sqrt([])

    def test_default_coefficient_close_to_single_point_refit(self):
        refit = fit_sqrt([SizePoint(uf=2182, issues=151)])
        assert refit.coefficient == pytest.approx(DEFAULT_SQRT_MODEL.coefficient, abs=0.7)


class TestResiduals:
    def test_sqrt_fit_never_beats_itself(self):
        points = [
            SizePoint(uf=uf, issues=issues)
            for uf, issues in ((100, 30), (400, 49), (900, 81), (2500, 128))
        ]
        model = fit_sqrt(points)
        best = residual_sum_of_squares(
            points, lambda uf: sqrt_estimate(uf, model)
        )
        for delta in (-0.05, 0.05):
            worse_model = SqrtSizeModel(coefficient=model.coefficient + delta)
            worse = residual_sum_of_squares(
                points, lambda uf: sqrt_estimate(uf, worse_model)
            )
            assert best <= worse

    def test_zero_for_a_perfect_predictor(self):
        points = [SizePoint(uf=10, issues=20), SizePoint(uf=20, issues=40)]
        assert residual_sum_of_squares(points, lambda uf: 2.0 * uf) == 0.0


class TestParseScatter:
    def test_round_trip_of_a_small_file(self):
        text = "uf,issues\n100,12\n250,31\n"
        assert parse_scatter(text) == [
            SizePoint(uf=100, issues=12),
            SizePoint(uf=250, issues=31),
        ]

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="header mismatch"):
            parse_scatter("size,bugs\n100,12\n")

    def test_bad_rows_reported_with_row_numbers(self):
        text = "uf,issues\n100,12\npotato,5\n-3,2\n"
        with pytest.raises(ValidationError) as err:
            parse_scatter(text)
        message = str(err.value)
        assert "row 2" in message
        assert "row 3" in message

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            parse_scatter("")

    @pytest.mark.parametrize("row", ["1_0,5", "١٠,5", "10,٥"])
    def test_a_cell_of_other_digits_or_underscores_rejected(self, row):
        # int reads them, but a scatter cell holds ASCII digits only.
        with pytest.raises(ValidationError) as err:
            parse_scatter(f"uf,issues\n{row}\n")
        assert err.value.diagnostics == (
            f"row 1: uf and issues must be integers, got {row.split(',')!r}",
        )
