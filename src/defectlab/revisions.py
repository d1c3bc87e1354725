"""Revision forecasting from defect injection and removal rates.

The model: building U units of work at injection rate r plants
U*r expected defects.  One review-and-fix cycle detects a fraction e
of the defects present and each fix, being itself a unit of work,
re-injects at rate r.  The expected count therefore decays by the
factor (1 - e*(1 - r)) per cycle, and the product is signed off once
it drops below a threshold (default 0.5: the expectation rounds to
zero).  Defect arithmetic stays fractional throughout; rounding at
each step would create absorbing states and non-monotone artifacts.

A Monte Carlo companion replays the same cycle with integer defects,
and signs a trial off at the same threshold.  Each review misses each
defect present, fixes it cleanly, or fixes it and injects a new one,
so one binomial draw per cycle gives a trial's new count; a second,
uniform draw, made only when nothing was fixed cleanly, says whether
the review found anything and so cost a revision.
An inverse estimator recovers the effective removal efficiency implied
by an observed revision count.
"""

from __future__ import annotations

import json
import sys

from .errors import (
    DivergenceError, ValidationError, Value, count_problem, fraction_problem, real_problem, refuse,
    show_int,
)

#: Expected residual defects below which a product is signed off.
SIGNOFF_THRESHOLD = 0.5

#: Safety cap on forecast length; a process that cannot sign off in
#: this many revisions is effectively divergent.
MAX_REVISIONS = 100_000

#: Review-fix cycle cap for one Monte Carlo trial; trials that hit it
#: are reported as censored.
MC_CYCLE_CAP = 1000

#: Most trials one Monte Carlo run may draw, about half an hour of work at
#: the slowest rates measured; a larger count is rejected before any is.
MAX_TRIALS = 10_000_000

#: Monte Carlo trials drawn together from one seed-derived stream.
#: Bounds the simulator's memory whatever the trial count.
MC_BLOCK_TRIALS = 4096

#: Axes of the published reference grid, as fractions.
DEFAULT_INJECTION_RATES = (0.03, 0.04, 0.05, 0.07, 0.10, 0.15, 0.20, 0.30)
DEFAULT_REMOVAL_EFFICIENCIES = (0.20, 0.25, 0.30, 0.35, 0.40, 0.50, 0.60, 0.80, 1.00)

#: The published reference grid describes a 2000-unit build.
PUBLISHED_GRID_UNITS = 2000

#: Published revision counts for a 2000-unit build, in the shape of
#: RevisionGrid.cells: one row per DEFAULT_REMOVAL_EFFICIENCIES entry,
#: one column per DEFAULT_INJECTION_RATES entry.  Kept as comparison
#: data, not as an oracle.  The decay recurrence matches 18 of the 72
#: cells and is off by one on 6 more, a total |delta| of 256.  An integer
#: review cycle (round(e*d) found per review, round(f*r) re-injected,
#: sign-off at the first review that finds nothing) reproduces all 72 in
#: exact arithmetic, the non-monotone 3% column included (6 revisions at
#: 50% efficiency but 7 at 60%), so grid_to_json() ships the comparison
#: in each cell instead of forcing a match.
PUBLISHED_REVISIONS = (
    (15, 17, 18, 20, 22, 25, 29, 37),  # 20%
    (12, 13, 14, 16, 18, 20, 23, 30),  # 25%
    (12, 12, 13, 15, 16, 18, 20, 26),  # 30%
    (10, 11, 11, 12, 14, 16, 18, 23),  # 35%
    (9, 9, 10, 11, 12, 14, 15, 20),  # 40%
    (6, 7, 7, 8, 9, 10, 12, 16),  # 50%
    (7, 7, 7, 8, 9, 10, 11, 14),  # 60%
    (5, 5, 5, 5, 6, 7, 7, 10),  # 80%
    (3, 3, 3, 4, 4, 5, 6, 8),  # 100%
)


def _threshold_problem(threshold: float) -> str | None:
    # Below the smallest normal float the decay can stall at a subnormal
    # value above the threshold, so a convergent process would read as
    # divergent; at or above it, every cell of the published grid signs
    # off within a few thousand revisions, even at MAX_COUNT units.
    if problem := real_problem("threshold", threshold):
        return problem
    if threshold < sys.float_info.min:
        return f"threshold must be >= {sys.float_info.min}, got {threshold}"
    return None


class ProcessParams(Value):
    """Inputs of the revision recurrence.

    Rates are fractions, not percentages.  Both rates admit their
    closed interval ends so that degenerate processes are expressible;
    whether the forecast converges is decided by the forecast itself,
    which raises DivergenceError when net removal is zero.
    """

    units: int
    injection_rate: float
    removal_efficiency: float
    threshold: float = SIGNOFF_THRESHOLD

    def __post_init__(self) -> None:
        refuse(
            "invalid process parameters",
            count_problem("units", self.units, least=1),
            fraction_problem("injection_rate", self.injection_rate),
            fraction_problem("removal_efficiency", self.removal_efficiency),
            _threshold_problem(self.threshold),
        )


class RevisionTrajectory(Value):
    """Expected defect counts per revision, ending below threshold.

    ``expected_defects[0]`` is the count injected by the initial
    build; the revision count includes that build as revision 1.
    """

    params: ProcessParams
    expected_defects: tuple[float, ...]

    @property
    def revisions(self) -> int:
        """Revisions to sign-off: one per expected count."""
        return len(self.expected_defects)

    def __post_init__(self) -> None:
        states, params = self.expected_defects, self.params
        removes = params.removal_efficiency * (1.0 - params.injection_rate) > 0.0
        refuse(
            "invalid revision trajectory",
            None if states else "trajectory must hold at least the initial build",
            "expected defect counts must be finite and >= 0"
            if any(real_problem("expected defects", d, zero=True) for d in states) else None,
            f"last expected count {states[-1]} has not reached threshold {params.threshold}"
            if states and states[-1] >= params.threshold else None,
            "expected defects must strictly decrease"
            if removes and any(later >= earlier for earlier, later in zip(states, states[1:]))
            else None,
        )


class McOutcome(Value):
    """Result of a Monte Carlo revision simulation.

    Histogram frequencies always sum to the trial count; trials that
    hit the cycle cap are included at their capped revision count and
    also reported via ``censored``.
    """

    trials: int
    seed: int
    histogram: dict[int, int]
    censored: int = 0

    @property
    def mean_revisions(self) -> float:
        """Mean revision count over all trials."""
        return sum(k * v for k, v in self.histogram.items()) / self.trials

    def __post_init__(self) -> None:
        total = sum(self.histogram.values())
        refuse(
            "invalid Monte Carlo outcome",
            count_problem("trials", self.trials, least=1),
            f"histogram frequencies sum to {show_int(total)}, expected {show_int(self.trials)}"
            if total != self.trials else None,
            None if 0 <= self.censored <= self.trials
            else f"censored must be within 0..trials, got {show_int(self.censored)}",
        )


def initial_defects(units: int, injection_rate: float) -> float:
    """Expected defects planted by the initial build: units x rate."""
    refuse(
        "invalid build",
        count_problem("units", units, least=1),
        fraction_problem("injection_rate", injection_rate),
    )
    return units * injection_rate


def _decay_states(
    initial: float, injection_rate: float, removal_efficiency: float, threshold: float
) -> list[float]:
    """Expected counts from the initial build down to below threshold."""
    states = [initial]
    if initial < threshold:
        return states
    net_removal = removal_efficiency * (1.0 - injection_rate)
    if net_removal <= 0.0:
        raise DivergenceError(
            f"no net defect removal (removal_efficiency={removal_efficiency}, "
            f"injection_rate={injection_rate}); expected defects never fall "
            f"below threshold {threshold}"
        )
    decay = 1.0 - net_removal
    current = initial
    while current >= threshold:
        current *= decay
        states.append(current)
        if len(states) > MAX_REVISIONS:
            raise DivergenceError(
                f"no sign-off within {MAX_REVISIONS} revisions; net removal "
                f"per cycle is only {net_removal:.3g}"
            )
    return states


def revisions_to_signoff(params: ProcessParams) -> RevisionTrajectory:
    """Forecast the revisions needed to reach sign-off.

    Counts the initial build as revision 1, then one revision per
    review-fix cycle until expected defects fall below the threshold.
    If the build already starts below threshold the answer is 1.
    """
    states = _decay_states(
        initial_defects(params.units, params.injection_rate),
        params.injection_rate,
        params.removal_efficiency,
        params.threshold,
    )
    return RevisionTrajectory(params=params, expected_defects=tuple(states))


def _check_grid(units: int, threshold: float) -> None:
    refuse(
        "invalid grid parameters",
        count_problem("units", units, least=1),
        _threshold_problem(threshold),
    )


class RevisionGrid(Value):
    """Forecast revision counts over the published grid's rate axes.

    ``cells[i][j]`` is the count for ``DEFAULT_REMOVAL_EFFICIENCIES[i]``
    and ``DEFAULT_INJECTION_RATES[j]``, the published axes, so that
    every cell has a published count to compare against.
    """

    units: int
    threshold: float
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_grid(self.units, self.threshold)
        if len(self.cells) != len(DEFAULT_REMOVAL_EFFICIENCIES) or any(
            len(row) != len(DEFAULT_INJECTION_RATES) for row in self.cells
        ):
            raise ValidationError("grid shape does not match the published axes")


def revision_table(units: int, threshold: float = SIGNOFF_THRESHOLD) -> RevisionGrid:
    """Forecast every cell of the published grid's axes for one build.

    Every rate pair on those axes removes defects on net, so every cell
    signs off (see ``_threshold_problem``).
    """
    _check_grid(units, threshold)
    rows = []
    for dre in DEFAULT_REMOVAL_EFFICIENCIES:
        row: list[int] = []
        for dir_ in DEFAULT_INJECTION_RATES:
            row.append(len(_decay_states(units * dir_, dir_, dre, threshold)))
        rows.append(tuple(row))
    return RevisionGrid(units=units, threshold=threshold, cells=tuple(rows))


def _pct(value: float) -> str:
    return f"{value * 100:g}"


def grid_to_csv(grid: RevisionGrid) -> str:
    """Grid as CSV: one row per removal efficiency, one column per
    injection rate, axes labelled in percent."""
    lines = ["dre_pct\\dir_pct," + ",".join(_pct(d) for d in DEFAULT_INJECTION_RATES)]
    for dre, row in zip(DEFAULT_REMOVAL_EFFICIENCIES, grid.cells):
        lines.append(_pct(dre) + "," + ",".join(map(str, row)))
    return "\n".join(lines) + "\n"


def grid_to_json(grid: RevisionGrid) -> str:
    """Grid as JSON: axes, per-cell forecasts with trajectories, and
    the comparison against the published reference grid.  Each cell's
    ``published`` and ``delta`` are null when the grid was built for a
    unit count other than PUBLISHED_GRID_UNITS."""
    unpublished = [(None,) * len(DEFAULT_INJECTION_RATES)] * len(DEFAULT_REMOVAL_EFFICIENCIES)
    reference = PUBLISHED_REVISIONS if grid.units == PUBLISHED_GRID_UNITS else unpublished
    cells = []
    for dre, row, published_row in zip(DEFAULT_REMOVAL_EFFICIENCIES, grid.cells, reference):
        for dir_, revisions, published in zip(DEFAULT_INJECTION_RATES, row, published_row):
            cells.append({
                "removal_efficiency": dre,
                "injection_rate": dir_,
                "revisions": revisions,
                # No cell diverges; the key is kept so the document keeps its shape.
                "divergent": False,
                "trajectory": _decay_states(grid.units * dir_, dir_, dre, grid.threshold),
                "published": published,
                "delta": None if published is None else revisions - published,
            })
    payload = {
        "units": grid.units,
        "threshold": grid.threshold,
        "injection_rates": list(DEFAULT_INJECTION_RATES),
        "removal_efficiencies": list(DEFAULT_REMOVAL_EFFICIENCIES),
        "published_reference_units": PUBLISHED_GRID_UNITS,
        "cells": cells,
    }
    return json.dumps(payload, indent=2) + "\n"


def simulate_monte_carlo(params: ProcessParams, trials: int, seed: int) -> McOutcome:
    """Stochastic replay of the revision cycle.

    Per trial: the build injects Binomial(units, r) defects.  In each
    review, each defect present is independently missed (1 - e), fixed
    cleanly (e*(1 - r)), or fixed with a new defect injected (e*r), so
    the count falls by one Binomial(n, e*(1 - r)) draw.  Sign-off once
    fewer than ``params.threshold`` defects remain (at the default of
    0.5, none remain).  Revisions count the build plus every review
    that found something; reviews that find nothing cost no revision,
    but count toward MC_CYCLE_CAP.  A review with a clean fix found
    something; one without found nothing with probability
    ((1 - e) / (1 - e*(1 - r)))^n, which one uniform draw settles for
    those trials alone.  Trials run in blocks of MC_BLOCK_TRIALS, and
    each block draws from its own stream derived from the seed and the
    index of the block's first trial, so a fixed (seed, trials)
    reproduces exactly and memory does not grow with the trial count.
    More than MAX_TRIALS trials is an error.
    """
    if problem := count_problem("trials", trials, least=1, most=MAX_TRIALS):
        raise ValidationError(problem)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {show_int(seed)}")
    import numpy as np  # only the Monte Carlo needs numpy; the other commands start without it

    e, r, threshold = params.removal_efficiency, params.injection_rate, params.threshold
    clean = e * (1.0 - r)
    # Given that it was not fixed cleanly, the chance that a defect was
    # missed rather than fixed with a new defect injected.  Unused when
    # every defect is fixed cleanly.
    missed = (1.0 - e) / (1.0 - clean) if clean < 1.0 else 0.0
    # A trial's revision count lies in 1..1 + MC_CYCLE_CAP.
    tallies = np.zeros(MC_CYCLE_CAP + 2, dtype=np.int64)
    censored = 0
    for trial in range(0, trials, MC_BLOCK_TRIALS):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
        size = min(MC_BLOCK_TRIALS, trials - trial)
        left = rng.binomial(params.units, r, size=size)
        left = left[left >= threshold]
        tallies[1] += size - left.size
        # Open trials only; after c cycles, a trial that found nothing in
        # `idle` of them has 1 + c - idle revisions.
        idle = np.zeros(left.size, dtype=np.int64)
        cycles = 0
        while left.size and cycles < MC_CYCLE_CAP:
            cycles += 1
            fixed = rng.binomial(left, clean)
            # Trials with no clean fix: did the review find anything?
            stuck = np.flatnonzero(fixed == 0)
            idle[stuck] += rng.random(stuck.size) < missed ** left[stuck]
            left -= fixed
            open_ = left >= threshold
            if not open_.all():
                done = np.bincount(1 + cycles - idle[~open_])
                tallies[: done.size] += done
                left, idle = left[open_], idle[open_]
        censored += left.size
        done = np.bincount(1 + cycles - idle)
        tallies[: done.size] += done
    histogram = {int(k): int(tallies[k]) for k in np.flatnonzero(tallies)}
    return McOutcome(trials=trials, seed=seed, histogram=histogram, censored=censored)


def infer_efficiency(
    initial: float,
    revisions: int,
    injection_rate: float,
    threshold: float = SIGNOFF_THRESHOLD,
) -> float:
    """Smallest removal efficiency that signs off within the given
    revision count, starting from an observed initial defect count.

    Found by bisection to absolute tolerance 1e-6, returning the upper
    end of the final bracket so that forward-running the result is
    guaranteed to need at most ``revisions`` revisions.
    """
    refuse(
        "invalid inverse-estimation inputs",
        real_problem("initial defects", initial),
        count_problem("revisions", revisions, least=2),
        fraction_problem("injection_rate", injection_rate),
        "injection_rate must be < 1 for any removal to stick" if injection_rate >= 1.0 else None,
        _threshold_problem(threshold),
    )

    def achieves(dre: float) -> bool:
        try:
            return len(_decay_states(initial, injection_rate, dre, threshold)) <= revisions
        except DivergenceError:
            return False

    if not achieves(1.0):
        raise ValidationError(
            f"{show_int(revisions)} revisions are unreachable from {initial} initial defects "
            f"even at removal efficiency 1.0"
        )
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-6:
        mid = (lo + hi) / 2.0
        if achieves(mid):
            hi = mid
        else:
            lo = mid
    return hi
