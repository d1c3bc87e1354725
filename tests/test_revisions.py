"""Revision forecasting: decay recurrence, grid, Monte Carlo, inverse."""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectlab import (
    DivergenceError,
    McOutcome,
    ProcessParams,
    RevisionTrajectory,
    ValidationError,
    grid_to_csv,
    grid_to_json,
    infer_efficiency,
    initial_defects,
    revision_table,
    revisions_to_signoff,
    simulate_monte_carlo,
)
from defectlab.errors import MAX_COUNT
from defectlab.revisions import (
    DEFAULT_INJECTION_RATES,
    DEFAULT_REMOVAL_EFFICIENCIES,
    MAX_REVISIONS,
    MAX_TRIALS,
    MC_BLOCK_TRIALS,
    MC_CYCLE_CAP,
    PUBLISHED_GRID_UNITS,
    PUBLISHED_REVISIONS,
    SIGNOFF_THRESHOLD,
    RevisionGrid,
    _decay_states,
)

AUDITED = ProcessParams(units=2182, injection_rate=0.07, removal_efficiency=0.75)


class TestProcessParams:
    def test_decay_factor(self):
        states = revisions_to_signoff(AUDITED).expected_defects
        assert states[1] / states[0] == pytest.approx(1 - 0.75 * 0.93)

    def test_rate_endpoints_are_legal(self):
        ProcessParams(units=10, injection_rate=0.0, removal_efficiency=1.0)
        ProcessParams(units=10, injection_rate=1.0, removal_efficiency=0.0)

    def test_rate_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError, match="injection_rate"):
            ProcessParams(units=10, injection_rate=1.2, removal_efficiency=0.5)
        with pytest.raises(ValidationError, match="removal_efficiency"):
            ProcessParams(units=10, injection_rate=0.2, removal_efficiency=-0.1)

    def test_units_below_one_rejected(self):
        with pytest.raises(ValidationError, match="units"):
            ProcessParams(units=0, injection_rate=0.2, removal_efficiency=0.5)

    def test_units_above_the_count_ceiling_rejected(self):
        ProcessParams(units=MAX_COUNT, injection_rate=0.2, removal_efficiency=0.5)
        with pytest.raises(ValidationError, match="units must be <="):
            ProcessParams(units=MAX_COUNT + 1, injection_rate=0.2, removal_efficiency=0.5)
        with pytest.raises(ValidationError, match="units must be <="):
            initial_defects(MAX_COUNT + 1, 0.2)
        with pytest.raises(ValidationError, match="units must be <="):
            revision_table(10**400)

    @pytest.mark.parametrize(("units", "shown"), [
        (10**4300 - 1, str(10**4300 - 1)),
        (10**4300, "an integer of 4301 digits"),
        (10**5000 - 1, "an integer of 5000 digits"),
        (10**5000, "an integer of 5001 digits"),
    ], ids=["4300 digits", "4301 digits", "5000 digits", "5001 digits"])
    def test_units_past_the_digit_limit_report_their_digit_count(self, units, shown):
        # str() converts at most 4300 digits by default.
        with pytest.raises(ValidationError) as err:
            ProcessParams(units=units, injection_rate=0.2, removal_efficiency=0.5)
        assert err.value.diagnostics == (f"units must be <= {MAX_COUNT}, got {shown}",)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValidationError, match="threshold"):
            ProcessParams(units=10, injection_rate=0.2, removal_efficiency=0.5, threshold=0.0)


#: Every entry point that takes a sign-off threshold.
THRESHOLD_TAKERS = {
    "ProcessParams": lambda t: ProcessParams(
        units=2182, injection_rate=0.07, removal_efficiency=0.3, threshold=t
    ),
    "revision_table": lambda t: revision_table(2000, threshold=t),
    "infer_efficiency": lambda t: infer_efficiency(239.0, 17, 0.07, threshold=t),
}


class TestThresholdFloor:
    """Below the smallest normal float the decay stalls at a subnormal
    value, so a convergent process would read as divergent."""

    @pytest.mark.parametrize("threshold", [5e-324, 1e-310, sys.float_info.min / 2])
    @pytest.mark.parametrize("taker", sorted(THRESHOLD_TAKERS))
    def test_subnormal_threshold_rejected(self, taker, threshold):
        with pytest.raises(ValidationError) as err:
            THRESHOLD_TAKERS[taker](threshold)
        assert err.value.diagnostics == (
            f"threshold must be >= 2.2250738585072014e-308, got {threshold}",
        )

    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("taker", sorted(THRESHOLD_TAKERS))
    def test_nonpositive_or_non_finite_keeps_its_message(self, taker, threshold):
        with pytest.raises(ValidationError) as err:
            THRESHOLD_TAKERS[taker](threshold)
        assert err.value.diagnostics == (f"threshold must be positive, got {threshold}",)

    def test_smallest_normal_threshold_signs_off(self):
        params = THRESHOLD_TAKERS["ProcessParams"](sys.float_info.min)
        assert revisions_to_signoff(params).expected_defects[-1] < sys.float_info.min

    def test_grid_cells_stay_integers_at_the_floor(self):
        # The slowest cell (e = 0.20, r = 0.30) at the largest build still
        # signs off far inside MAX_REVISIONS.
        grid = revision_table(MAX_COUNT, threshold=sys.float_info.min)
        assert all(type(cell) is int for row in grid.cells for cell in row)
        assert max(max(row) for row in grid.cells) == grid.cells[0][-1] < MAX_REVISIONS


class TestInitialDefects:
    def test_audited_consultancy_build(self):
        assert initial_defects(2182, 0.07) == pytest.approx(152.74, abs=1e-9)

    def test_zero_rate(self):
        assert initial_defects(300, 0.0) == 0.0

    def test_end_user_build(self):
        assert initial_defects(300, 0.20) == pytest.approx(60.0)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValidationError):
            initial_defects(300, 1.5)


class TestRevisionStep:
    """One review-and-fix cycle, as the forecast applies it."""

    @staticmethod
    def _first_step(units: int, injection: float, efficiency: float) -> float:
        params = ProcessParams(
            units=units, injection_rate=injection, removal_efficiency=efficiency
        )
        return revisions_to_signoff(params).expected_defects[1]

    def test_perfect_review_leaves_only_reinjection(self):
        assert self._first_step(1000, 0.03, 1.0) == pytest.approx(0.9)

    def test_half_efficiency(self):
        assert self._first_step(500, 0.20, 0.50) == pytest.approx(60.0)


class TestRevisionsToSignoff:
    def test_audited_consultancy_reaches_signoff_in_six(self):
        trajectory = revisions_to_signoff(AUDITED)
        assert trajectory.revisions == 6
        assert trajectory.expected_defects[0] == pytest.approx(152.74, abs=1e-9)
        assert trajectory.expected_defects[1] == pytest.approx(46.20385, abs=1e-9)
        assert trajectory.expected_defects[2] == pytest.approx(13.976664625, abs=1e-9)
        assert trajectory.expected_defects[-1] < SIGNOFF_THRESHOLD

    def test_end_user_twenty_percent_trajectory_is_exact(self):
        # Perfect review at 20% injection decays by exactly 0.2 per cycle.
        params = ProcessParams(units=2000, injection_rate=0.20, removal_efficiency=1.0)
        trajectory = revisions_to_signoff(params)
        assert trajectory.revisions == 6
        assert trajectory.expected_defects == (
            400.0,
            79.99999999999999,
            15.999999999999993,
            3.199999999999998,
            0.6399999999999995,
            0.12799999999999986,
        )

    def test_worked_example_three_revisions(self):
        for units in (2000, 1000):
            params = ProcessParams(units=units, injection_rate=0.03, removal_efficiency=1.0)
            assert revisions_to_signoff(params).revisions == 3

    def test_zero_efficiency_diverges(self):
        params = ProcessParams(units=2000, injection_rate=0.07, removal_efficiency=0.0)
        with pytest.raises(DivergenceError, match="no net defect removal"):
            revisions_to_signoff(params)

    def test_total_reinjection_diverges(self):
        params = ProcessParams(units=2000, injection_rate=1.0, removal_efficiency=0.9)
        with pytest.raises(DivergenceError, match="no net defect removal"):
            revisions_to_signoff(params)

    def test_immediate_signoff_when_build_starts_clean(self):
        # 4 units at 10% injects 0.4 expected defects: already below 0.5,
        # so sign-off takes exactly the build, even with zero efficiency.
        params = ProcessParams(units=4, injection_rate=0.10, removal_efficiency=0.0)
        trajectory = revisions_to_signoff(params)
        assert trajectory.revisions == 1
        assert trajectory.expected_defects == (0.4,)

    def test_glacial_processes_raise_rather_than_spin(self):
        params = ProcessParams(
            units=100_000, injection_rate=0.999999999, removal_efficiency=1.0
        )
        with pytest.raises(DivergenceError, match="100000 revisions"):
            revisions_to_signoff(params)

    def test_trajectory_round_trips_through_its_params(self):
        trajectory = revisions_to_signoff(AUDITED)
        again = revisions_to_signoff(trajectory.params)
        assert again == trajectory

    @given(
        units=st.integers(1, 100_000),
        injection=st.floats(0.0, 0.9),
        efficiency=st.floats(0.05, 1.0),
        threshold=st.floats(0.01, 50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_state_is_exactly_one_public_step(
        self, units, injection, efficiency, threshold
    ):
        params = ProcessParams(
            units=units,
            injection_rate=injection,
            removal_efficiency=efficiency,
            threshold=threshold,
        )
        trajectory = revisions_to_signoff(params)
        assert trajectory.expected_defects[0] == initial_defects(units, injection)
        for earlier, later in zip(trajectory.expected_defects, trajectory.expected_defects[1:]):
            assert later == earlier * (1.0 - efficiency * (1.0 - injection))
        assert trajectory.expected_defects[-1] < threshold
        for state in trajectory.expected_defects[:-1]:
            assert state >= threshold


class TestTrajectoryType:
    def test_non_decreasing_trajectory_rejected(self):
        with pytest.raises(ValidationError, match="strictly decrease"):
            RevisionTrajectory(params=AUDITED, expected_defects=(10.0, 10.0))

    @pytest.mark.parametrize(
        "counts", [(10.0, -1.0), (10.0, float("nan")), (float("inf"), 0.1)],
        ids=["negative", "nan", "infinite"],
    )
    def test_negative_or_non_finite_count_rejected(self, counts):
        with pytest.raises(ValidationError) as caught:
            RevisionTrajectory(params=AUDITED, expected_defects=counts)
        assert str(caught.value) == (
            "invalid revision trajectory\n  expected defect counts must be finite and >= 0"
        )

    def test_unfinished_trajectory_rejected(self):
        with pytest.raises(ValidationError, match="threshold"):
            RevisionTrajectory(params=AUDITED, expected_defects=(10.0,))

    def test_revisions_is_the_trajectory_length_and_not_an_argument(self):
        trajectory = RevisionTrajectory(params=AUDITED, expected_defects=(10.0, 1.0, 0.1))
        assert trajectory.revisions == 3
        with pytest.raises(TypeError):
            RevisionTrajectory(params=AUDITED, revisions=3, expected_defects=(10.0, 1.0, 0.1))


class TestRevisionTable:
    def test_default_grid_shape(self):
        grid = revision_table(2000)
        assert RevisionGrid.__match_args__ == ("units", "threshold", "cells")
        assert (grid.units, grid.threshold) == (2000, SIGNOFF_THRESHOLD)
        assert len(grid.cells) == len(DEFAULT_REMOVAL_EFFICIENCIES) == 9
        assert all(len(row) == 8 for row in grid.cells)

    def test_published_table_has_the_grid_shape(self):
        grid = RevisionGrid(
            units=PUBLISHED_GRID_UNITS, threshold=SIGNOFF_THRESHOLD, cells=PUBLISHED_REVISIONS
        )
        assert grid.cells == PUBLISHED_REVISIONS

    def test_perfect_efficiency_row(self):
        grid = revision_table(2000)
        assert grid.cells[-1][:7] == (3, 3, 3, 4, 4, 5, 6)

    def test_cell_against_published_neighbour(self):
        # At 30% injection / 100% efficiency the decay model says 7 where
        # the published grid printed 8; its whole row is within one.
        grid = revision_table(2000)
        assert grid.cells[-1][-1] == 7
        assert PUBLISHED_REVISIONS[-1][-1] == 8

    def test_cells_match_scalar_forecasts(self):
        grid = revision_table(500)
        for dre, row in zip(DEFAULT_REMOVAL_EFFICIENCIES, grid.cells):
            for dir_, cell in zip(DEFAULT_INJECTION_RATES, row):
                params = ProcessParams(
                    units=500, injection_rate=dir_, removal_efficiency=dre
                )
                assert cell == revisions_to_signoff(params).revisions

    def test_monotone_in_rates_and_units(self):
        small, grid, large = (revision_table(u) for u in (1000, 2000, 4000))
        for row in grid.cells:  # more injection, never fewer revisions
            assert all(a <= b for a, b in zip(row, row[1:]))
        for upper, lower in zip(grid.cells, grid.cells[1:]):  # better review, never more
            assert all(a >= b for a, b in zip(upper, lower))
        for s_row, m_row, l_row in zip(small.cells, grid.cells, large.cells):
            assert all(s <= m <= l for s, m, l in zip(s_row, m_row, l_row))


class TestGridSerialization:
    def test_csv_layout(self):
        text = grid_to_csv(revision_table(2000))
        lines = text.strip().split("\n")
        assert len(lines) == 10
        assert lines[0] == "dre_pct\\dir_pct,3,4,5,7,10,15,20,30"
        assert lines[-1].startswith("100,3,3,3,4,4,5,6,")

    @pytest.mark.parametrize("units", [PUBLISHED_GRID_UNITS, 1000])
    def test_json_round_trips_and_carries_trajectories(self, units):
        grid = revision_table(units)
        payload = json.loads(grid_to_json(grid))
        assert payload["units"] == units
        assert payload["published_reference_units"] == PUBLISHED_GRID_UNITS
        assert payload["injection_rates"] == list(DEFAULT_INJECTION_RATES)
        assert payload["removal_efficiencies"] == list(DEFAULT_REMOVAL_EFFICIENCIES)
        assert len(payload["cells"]) == 72
        rates = [(dre, dir_) for dre in DEFAULT_REMOVAL_EFFICIENCIES
                 for dir_ in DEFAULT_INJECTION_RATES]
        counts = [count for row in grid.cells for count in row]
        published_counts = [count for row in PUBLISHED_REVISIONS for count in row]
        for cell, (dre, dir_), count, published in zip(
            payload["cells"], rates, counts, published_counts, strict=True
        ):
            assert (cell["removal_efficiency"], cell["injection_rate"]) == (dre, dir_)
            assert cell["revisions"] == count
            assert len(cell["trajectory"]) == cell["revisions"]
            assert cell["trajectory"][0] == units * dir_
            if units == PUBLISHED_GRID_UNITS:
                assert (cell["published"], cell["delta"]) == (published, count - published)
            else:
                assert cell["published"] is None and cell["delta"] is None


class TestDivergenceReport:
    """The model's divergence from the published grid, as reported in
    grid_to_json's cells."""

    def test_high_efficiency_rows_stay_within_one(self):
        cells = json.loads(grid_to_json(revision_table(2000)))["cells"]
        close = [cell for cell in cells if cell["removal_efficiency"] >= 0.80]
        assert len(close) == 16
        assert all(abs(cell["delta"]) <= 1 for cell in close)
        assert sum(1 for cell in close if cell["delta"] == 0) >= 12

    def test_grid_off_the_published_axes_rejected(self):
        # The grid holds no axes of its own, so none can be passed in ...
        with pytest.raises(TypeError):
            RevisionGrid(
                units=2000, threshold=0.5, injection_rates=(0.11,),
                removal_efficiencies=(0.2,), cells=((5,),),
            )
        # ... and cells of another shape than the published axes are refused.
        row = (1,) * len(DEFAULT_INJECTION_RATES)
        with pytest.raises(ValidationError, match="grid shape does not match the published axes"):
            RevisionGrid(units=2000, threshold=0.5, cells=(row,) * 8)
        with pytest.raises(ValidationError, match="grid shape does not match the published axes"):
            RevisionGrid(units=2000, threshold=0.5, cells=(row[:-1],) * 9)


class TestMonteCarlo:
    def test_same_seed_reproduces_exactly(self):
        one = simulate_monte_carlo(AUDITED, trials=200, seed=7)
        two = simulate_monte_carlo(AUDITED, trials=200, seed=7)
        assert one == two

    def test_different_seeds_differ(self):
        one = simulate_monte_carlo(AUDITED, trials=200, seed=7)
        two = simulate_monte_carlo(AUDITED, trials=200, seed=8)
        assert one.histogram != two.histogram

    def test_mean_tracks_the_deterministic_forecast(self):
        outcome = simulate_monte_carlo(AUDITED, trials=2000, seed=42)
        assert outcome.mean_revisions == pytest.approx(6.0, abs=1.5)
        assert outcome.censored == 0

    def test_zero_injection_signs_off_at_build(self):
        params = ProcessParams(units=100, injection_rate=0.0, removal_efficiency=1.0)
        outcome = simulate_monte_carlo(params, trials=300, seed=1)
        assert outcome.histogram == {1: 300}
        assert outcome.mean_revisions == 1.0

    def test_zero_efficiency_censors_every_defective_trial(self):
        params = ProcessParams(units=50, injection_rate=0.5, removal_efficiency=0.0)
        outcome = simulate_monte_carlo(params, trials=50, seed=3)
        # Nothing is ever found, so no cycle changes anything: every trial
        # reports revisions=1 and any trial that built defects is censored.
        assert set(outcome.histogram) == {1}
        assert outcome.censored > 0

    def test_full_efficiency_and_injection_censors_every_trial_at_the_cap(self):
        params = ProcessParams(units=5, injection_rate=1.0, removal_efficiency=1.0)
        outcome = simulate_monte_carlo(params, trials=20, seed=1)
        # Every review finds every defect and every fix injects a new one,
        # so each cycle costs a revision and none signs off.
        assert outcome.histogram == {1 + MC_CYCLE_CAP: 20}
        assert outcome.censored == 20

    def test_histogram_conserves_trials(self):
        outcome = simulate_monte_carlo(AUDITED, trials=333, seed=5)
        assert sum(outcome.histogram.values()) == 333

    def test_trials_below_one_rejected(self):
        with pytest.raises(ValidationError, match="trials"):
            simulate_monte_carlo(AUDITED, trials=0, seed=1)

    def test_trials_above_the_cap_rejected_before_any_is_drawn(self):
        with pytest.raises(ValidationError, match=f"trials must be <= {MAX_TRIALS}, got 10000001"):
            simulate_monte_carlo(AUDITED, trials=MAX_TRIALS + 1, seed=1)
        with pytest.raises(ValidationError, match="got an integer of 5001 digits"):
            simulate_monte_carlo(AUDITED, trials=10**5000, seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            simulate_monte_carlo(AUDITED, trials=10, seed=-1)

    def test_single_trial(self):
        outcome = simulate_monte_carlo(AUDITED, trials=1, seed=4)
        assert sum(outcome.histogram.values()) == 1
        assert outcome == simulate_monte_carlo(AUDITED, trials=1, seed=4)

    @pytest.mark.parametrize(
        "trials",
        [MC_BLOCK_TRIALS - 1, MC_BLOCK_TRIALS, MC_BLOCK_TRIALS + 1, 2 * MC_BLOCK_TRIALS + 1],
    )
    def test_trials_across_block_boundaries(self, trials):
        outcome = simulate_monte_carlo(AUDITED, trials=trials, seed=6)
        assert sum(outcome.histogram.values()) == trials
        assert outcome == simulate_monte_carlo(AUDITED, trials=trials, seed=6)

    def test_each_block_has_its_own_stream(self):
        # The first block of B + 1 trials replays the whole B-trial run,
        # so the two histograms differ by the one trial of block 1.
        full = simulate_monte_carlo(AUDITED, trials=MC_BLOCK_TRIALS, seed=6).histogram
        more = simulate_monte_carlo(AUDITED, trials=MC_BLOCK_TRIALS + 1, seed=6).histogram
        diff = [more.get(k, 0) - full.get(k, 0) for k in more.keys() | full.keys()]
        assert [d for d in diff if d] == [1]

    def test_capped_trials_are_censored_at_their_revision_count(self):
        # Nothing is ever found, so every trial runs all MC_CYCLE_CAP
        # cycles with its defects (P(no defect built) = 2**-50) and ends
        # censored at the build's single revision, in both blocks.
        params = ProcessParams(units=50, injection_rate=0.5, removal_efficiency=0.0)
        trials = MC_BLOCK_TRIALS + 1
        outcome = simulate_monte_carlo(params, trials=trials, seed=3)
        assert outcome.histogram == {1: trials}
        assert outcome.censored == trials

    def test_threshold_above_any_build_signs_off_at_build(self):
        # At most 50 defects can be built, so every trial starts below
        # the threshold; without it, every trial would be censored.
        params = ProcessParams(
            units=50, injection_rate=0.5, removal_efficiency=0.0, threshold=51.0
        )
        trials = MC_BLOCK_TRIALS + 1
        outcome = simulate_monte_carlo(params, trials=trials, seed=3)
        assert outcome.histogram == {1: trials}
        assert outcome.censored == 0

    def test_higher_threshold_signs_off_sooner(self):
        # About 153 defects are built and one review leaves about 46, so
        # at a threshold of 100 the recurrence and the trials need 2.
        params = ProcessParams(
            units=2182, injection_rate=0.07, removal_efficiency=0.75, threshold=100.0
        )
        assert revisions_to_signoff(params).revisions == 2
        outcome = simulate_monte_carlo(params, trials=1000, seed=3)
        assert outcome.mean_revisions == pytest.approx(2.0, abs=0.01)

    def test_outcome_type_rejects_zero_trials(self):
        with pytest.raises(ValidationError) as caught:
            McOutcome(trials=0, seed=1, histogram={})
        assert str(caught.value) == "invalid Monte Carlo outcome\n  trials must be >= 1, got 0"

    def test_outcome_type_rejects_inconsistent_histogram(self):
        with pytest.raises(ValidationError, match="histogram"):
            McOutcome(trials=3, seed=1, histogram={2: 2})

    def test_mean_revisions_is_the_histogram_mean_and_not_an_argument(self):
        assert McOutcome(trials=4, seed=1, histogram={2: 3, 6: 1}).mean_revisions == 3.0
        with pytest.raises(TypeError):
            McOutcome(trials=2, seed=1, mean_revisions=2.0, histogram={2: 2})


class TestInferEfficiency:
    def test_audited_consultancy_history(self):
        efficiency = infer_efficiency(239.0, revisions=17, injection_rate=0.07)
        assert efficiency == pytest.approx(0.344, abs=1e-2)

    def test_result_actually_achieves_the_target(self):
        efficiency = infer_efficiency(239.0, revisions=17, injection_rate=0.07)
        defects, revisions = 239.0, 1
        while defects >= SIGNOFF_THRESHOLD:
            defects *= 1.0 - efficiency * (1.0 - 0.07)
            revisions += 1
        assert revisions <= 17

    @given(
        initial=st.floats(1.0, 10_000.0),
        revisions=st.integers(2, 40),
        injection=st.floats(0.0, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_result_is_minimal_within_tolerance(self, initial, revisions, injection):
        try:
            efficiency = infer_efficiency(initial, revisions, injection)
        except ValidationError:
            return  # unreachable targets are a legal outcome, tested below

        def settles(dre: float) -> bool:
            defects, steps = initial, 1
            while defects >= SIGNOFF_THRESHOLD and steps <= revisions:
                defects *= 1.0 - dre * (1.0 - injection)
                steps += 1
            return defects < SIGNOFF_THRESHOLD and steps <= revisions

        assert settles(efficiency)
        if efficiency > 1.5e-6:
            assert not settles(efficiency - 1.5e-6)

    def test_revision_cap_bounds_the_answer(self):
        # A target past MAX_REVISIONS: below the answer, the recurrence hits
        # the cap and raises, which the bisection counts as falling short.
        efficiency = infer_efficiency(1000.0, revisions=10**6, injection_rate=0.0)
        assert efficiency == 7.62939453125e-05
        assert len(_decay_states(1000.0, 0.0, efficiency, SIGNOFF_THRESHOLD)) <= MAX_REVISIONS
        with pytest.raises(DivergenceError, match="no sign-off within 100000 revisions"):
            _decay_states(1000.0, 0.0, efficiency - 1e-6, SIGNOFF_THRESHOLD)

    def test_three_revision_crunch_needs_heroic_review(self):
        assert infer_efficiency(60.0, 3, 0.03) == pytest.approx(0.9368, abs=1e-3)

    def test_degenerate_target_already_below_threshold(self):
        assert infer_efficiency(0.3, 2, 0.1) < 1e-5

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValidationError, match="unreachable"):
            infer_efficiency(1e6, 2, 0.9)

    def test_total_reinjection_rejected(self):
        with pytest.raises(ValidationError, match="must be < 1"):
            infer_efficiency(100.0, 5, 1.0)

    def test_nonpositive_initial_rejected(self):
        with pytest.raises(ValidationError) as caught:
            infer_efficiency(0.0, 5, 0.1)
        assert str(caught.value) == (
            "invalid inverse-estimation inputs\n  initial defects must be positive, got 0.0"
        )

    def test_single_revision_rejected(self):
        with pytest.raises(ValidationError, match="revisions"):
            infer_efficiency(100.0, 1, 0.1)
