"""Rayleigh arrival model: cdf, fitting, readiness."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectlab import (
    NonConvergenceError,
    RayleighFit,
    ValidationError,
    expected_bucket_counts,
    fit_arrival,
    rayleigh_cdf,
    remaining_defects,
    time_to_threshold,
)
from defectlab.rayleigh import PEAK_FRACTION


class TestCdf:
    def test_zero_at_time_zero(self):
        assert rayleigh_cdf(0.0, 200.0, 4.0) == 0.0

    def test_peak_fraction_at_sigma(self):
        ratio = rayleigh_cdf(4.0, 200.0, 4.0) / 200.0
        assert ratio == pytest.approx(1.0 - math.exp(-0.5), abs=1e-9)
        assert ratio == pytest.approx(0.393469, abs=1e-6)
        assert PEAK_FRACTION == pytest.approx(rayleigh_cdf(4.0, 1.0, 4.0), rel=1e-12)

    def test_saturates_at_k_total(self):
        assert rayleigh_cdf(40.0, 200.0, 4.0) == pytest.approx(200.0, rel=1e-9)

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError, match="t must be >= 0"):
            rayleigh_cdf(-1.0, 200.0, 4.0)

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(ValidationError, match="sigma"):
            rayleigh_cdf(1.0, 200.0, 0.0)
        with pytest.raises(ValidationError, match="k_total"):
            rayleigh_cdf(1.0, 0.0, 4.0)

    @pytest.mark.parametrize(("t", "k_total", "sigma", "message"), [
        (1.0, 200.0, math.nan, "sigma must be positive, got nan"),
        (1.0, 200.0, math.inf, "sigma must be positive, got inf"),
        (1.0, math.nan, 4.0, "k_total must be positive, got nan"),
        (1.0, math.inf, 4.0, "k_total must be positive, got inf"),
        (math.nan, 200.0, 4.0, "t must be >= 0, got nan"),
        (math.inf, 200.0, 4.0, "t must be >= 0, got inf"),
        (1.0, math.nan, math.nan, "sigma must be positive, got nan"),
    ])
    def test_non_finite_arguments_rejected(self, t, k_total, sigma, message):
        with pytest.raises(ValidationError) as caught:
            rayleigh_cdf(t, k_total, sigma)
        assert str(caught.value) == message

    @given(
        st.floats(0.0, 100.0),
        st.floats(0.0, 100.0),
        st.floats(1.0, 1000.0),
        st.floats(0.1, 50.0),
    )
    def test_monotone_and_bounded(self, t1, t2, k, sigma):
        lo, hi = sorted((t1, t2))
        c_lo, c_hi = (rayleigh_cdf(t, k, sigma) for t in (lo, hi))
        # <= k, not < k: far past sigma the exponential saturates in floats.
        assert 0.0 <= c_lo <= c_hi <= k


class TestExpectedBucketCounts:
    def test_sums_to_cdf_at_last_edge(self):
        counts = expected_bucket_counts(200.0, 4.0, 12)
        assert sum(counts) == pytest.approx(rayleigh_cdf(12.0, 200.0, 4.0), rel=1e-12)

    def test_peak_bucket_contains_sigma(self):
        counts = expected_bucket_counts(100.0, 7.3, 30)
        assert counts.index(max(counts)) == 7  # bucket (7, 8] holds t = 7.3

    def test_all_positive(self):
        assert all(c > 0 for c in expected_bucket_counts(50.0, 2.0, 10))

    def test_zero_buckets_rejected(self):
        with pytest.raises(ValidationError, match="buckets"):
            expected_bucket_counts(50.0, 2.0, 0)

    @pytest.mark.parametrize(("k_total", "sigma", "message"), [
        (math.inf, 4.0, "k_total must be positive, got inf"),
        (50.0, math.nan, "sigma must be positive, got nan"),
        (50.0, math.inf, "sigma must be positive, got inf"),
        (math.nan, math.nan, "sigma must be positive, got nan"),
    ])
    def test_non_finite_parameters_rejected(self, k_total, sigma, message):
        with pytest.raises(ValidationError) as caught:
            expected_bucket_counts(k_total, sigma, 3)
        assert str(caught.value) == message


class TestFitArrival:
    def test_recovers_noiseless_parameters(self):
        fit = fit_arrival(expected_bucket_counts(200.0, 4.0, 12))
        assert fit.k_total == pytest.approx(200.0, rel=0.02)
        assert fit.sigma == pytest.approx(4.0, rel=0.02)
        assert fit.sse < 1e-6
        assert fit.buckets_used == 12

    def test_refit_of_own_expectation_is_idempotent(self):
        first = fit_arrival(expected_bucket_counts(200.0, 4.0, 12))
        second = fit_arrival(
            expected_bucket_counts(first.k_total, first.sigma, 12)
        )
        assert second.k_total == pytest.approx(first.k_total, rel=1e-6)
        assert second.sigma == pytest.approx(first.sigma, rel=1e-6)

    def test_count_scaling_scales_k_and_fixes_sigma(self):
        base = expected_bucket_counts(200.0, 4.0, 12)
        fit1 = fit_arrival(base)
        fit4 = fit_arrival([4.0 * c for c in base])
        assert fit4.sigma == fit1.sigma  # same shape, bit-identical search path
        assert fit4.k_total / fit1.k_total == pytest.approx(4.0, rel=1e-12)

    def test_truncated_series_still_projects_the_total(self):
        # Only six buckets of a sigma=6 process: the peak is at the edge
        # of the data, yet the projected total must stay honest.
        fit = fit_arrival(expected_bucket_counts(500.0, 6.0, 6))
        assert fit.k_total == pytest.approx(500.0, rel=0.01)
        assert fit.sigma == pytest.approx(6.0, rel=0.01)

    def test_integer_rounded_counts_stay_close(self):
        counts = [round(c) for c in expected_bucket_counts(500.0, 6.0, 6)]
        fit = fit_arrival(counts)
        assert fit.k_total == pytest.approx(500.0, rel=0.10)

    def test_front_loaded_data_hit_the_lower_boundary(self):
        with pytest.raises(NonConvergenceError, match="lower boundary"):
            fit_arrival([100.0, 0.0, 0.0])

    def test_ever_accelerating_data_hit_the_upper_boundary(self):
        counts = [2.0 * i + 1.0 for i in range(10)]  # cumulative = (i+1)^2
        with pytest.raises(NonConvergenceError, match="upper boundary"):
            fit_arrival(counts)

    def test_too_few_buckets_rejected(self):
        with pytest.raises(ValidationError, match="at least 3 buckets"):
            fit_arrival([5.0, 5.0])

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError, match="non-zero"):
            fit_arrival([0.0, 0.0, 0.0, 0.0])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError, match=">= 0"):
            fit_arrival([5.0, -1.0, 2.0])

    @given(
        k=st.floats(10.0, 5000.0),
        sigma=st.floats(1.5, 12.0),
        buckets=st.integers(6, 40),
    )
    @settings(max_examples=30, deadline=None)
    def test_noiseless_recovery_property(self, k, sigma, buckets):
        if buckets < sigma:  # keep the peak inside the observed span
            buckets = int(math.ceil(sigma)) + 3
        fit = fit_arrival(expected_bucket_counts(k, sigma, buckets))
        assert fit.k_total == pytest.approx(k, rel=0.02)
        assert fit.sigma == pytest.approx(sigma, rel=0.02)


class TestFitType:
    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValidationError, match="k_total"):
            RayleighFit(k_total=0.0, sigma=1.0, sse=0.0, buckets_used=3)
        with pytest.raises(ValidationError, match="sigma"):
            RayleighFit(k_total=1.0, sigma=-1.0, sse=0.0, buckets_used=3)
        with pytest.raises(ValidationError, match="buckets_used"):
            RayleighFit(k_total=1.0, sigma=1.0, sse=0.0, buckets_used=2)

    def test_rejects_negative_sse(self):
        with pytest.raises(ValidationError) as caught:
            RayleighFit(k_total=1.0, sigma=1.0, sse=-1.0, buckets_used=3)
        assert str(caught.value) == "invalid arrival fit\n  sse must be >= 0, got -1.0"


class TestReadiness:
    def _fit(self) -> RayleighFit:
        return RayleighFit(k_total=200.0, sigma=4.0, sse=0.0, buckets_used=12)

    def test_remaining_at_time_zero_is_everything(self):
        assert remaining_defects(self._fit(), 0.0) == 200.0

    def test_remaining_decreases_to_zero(self):
        fit = self._fit()
        values = [remaining_defects(fit, t) for t in (0.0, 2.0, 4.0, 8.0, 40.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.0, abs=1e-6)

    def test_time_to_one_remaining(self):
        assert time_to_threshold(self._fit(), 1.0) == pytest.approx(
            13.020989045749834, abs=1e-9
        )

    def test_threshold_round_trips_through_remaining(self):
        fit = self._fit()
        for threshold in (0.5, 1.0, 25.0, 150.0):
            t = time_to_threshold(fit, threshold)
            assert remaining_defects(fit, t) == pytest.approx(threshold, rel=1e-9)

    @given(st.floats(1e-2, 150.0), st.floats(10.0, 500.0), st.floats(0.5, 20.0))
    @settings(max_examples=50)
    def test_round_trip_property(self, threshold, k, sigma):
        if threshold >= k:
            threshold = k / 2.0
        fit = RayleighFit(k_total=k, sigma=sigma, sse=0.0, buckets_used=3)
        t = time_to_threshold(fit, threshold)
        assert remaining_defects(fit, t) == pytest.approx(threshold, rel=1e-9)

    def test_threshold_at_or_above_total_rejected(self):
        with pytest.raises(ValidationError, match="below k_total"):
            time_to_threshold(self._fit(), 200.0)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            time_to_threshold(self._fit(), 0.0)
