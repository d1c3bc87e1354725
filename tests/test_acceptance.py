"""Acceptance checks for the toolkit's published behaviour.

Each test prints one PASS/FAIL line; run with ``pytest -v -s
tests/test_acceptance.py`` to see them.  Tolerances are part of the
contract and are asserted exactly as stated, not loosened to taste.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from conftest import EPOCH, make_record, serialize_defect_log
import defectlab
from defectlab import (
    ProcessParams,
    arrival_series,
    expected_bucket_counts,
    fit_arrival,
    fit_linear,
    grid_to_json,
    infer_efficiency,
    initial_defects,
    linear_estimate,
    parse_defect_log,
    rayleigh_cdf,
    revision_table,
    revisions_to_signoff,
    simulate_monte_carlo,
    sqrt_estimate,
)
from defectlab.revisions import (
    DEFAULT_INJECTION_RATES,
    DEFAULT_REMOVAL_EFFICIENCIES,
    PUBLISHED_REVISIONS,
    SIGNOFF_THRESHOLD,
)
from defectlab.sizing import SizePoint

from datetime import timedelta


@contextmanager
def _criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


#: The directory the package under test was imported from, for the CLI's child processes.
SRC = os.path.dirname(os.path.dirname(defectlab.__file__))


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "defectlab", *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_criterion_1_audited_consultancy_forecast():
    with _criterion("criterion 1: 2182 units at 7%/75% sign off in 6 revisions, <1ms/call"):
        params = ProcessParams(units=2182, injection_rate=0.07, removal_efficiency=0.75)
        assert revisions_to_signoff(params).revisions == 6
        calls = 100
        started = time.perf_counter()
        for _ in range(calls):
            revisions_to_signoff(params)
        per_call = (time.perf_counter() - started) / calls
        assert per_call < 1e-3, f"forecast took {per_call * 1e3:.3f} ms per call"


def test_criterion_2_worked_example_three_revisions():
    with _criterion("criterion 2: 3% injection with perfect review needs 3 revisions"):
        for units in (2000, 1000):
            params = ProcessParams(
                units=units, injection_rate=0.03, removal_efficiency=1.00
            )
            assert revisions_to_signoff(params).revisions == 3


def test_criterion_3_reference_grid_agreement():
    with _criterion(
        "criterion 3: high-efficiency grid rows within +/-1 (>=12/16 exact); "
        "the grid's JSON compares all 72 cells"
    ):
        grid = revision_table(2000)
        rows = dict(zip(DEFAULT_REMOVAL_EFFICIENCIES, zip(grid.cells, PUBLISHED_REVISIONS)))
        exact = 0
        for dre in (0.80, 1.00):
            row, published_row = rows[dre]
            for dir_rate, model, published in zip(DEFAULT_INJECTION_RATES, row, published_row):
                assert abs(model - published) <= 1, (
                    f"{dre:.0%}/{dir_rate:.0%}: model {model} vs published {published}"
                )
                exact += model == published
        assert exact >= 12, f"only {exact}/16 high-efficiency cells exact"

        row_60, published_60 = rows[0.60]
        for model, published in zip(row_60, published_60):
            assert abs(model - published) <= 1

        cells = json.loads(grid_to_json(grid))["cells"]
        assert len(cells) == 72
        assert all(cell["published"] is not None for cell in cells)

        result = _cli("forecast", "--units", "2000", "--table")
        assert result.returncode == 0, result.stderr
        assert len(json.loads(result.stdout)["cells"]) == 72


def test_criterion_4_initial_defect_estimate():
    with _criterion("criterion 4: initial defects 2182 x 0.07 = 152.74, within 2% of 151"):
        estimate = initial_defects(2182, 0.07)
        assert estimate == pytest.approx(152.74, abs=1e-9)
        assert abs(estimate - 151) / 151 < 0.02


def test_criterion_5_size_estimators():
    with _criterion("criterion 5: linear estimate 151 +/- 1, sqrt estimate 121.5 +/- 0.1"):
        assert linear_estimate(2182) == pytest.approx(151, abs=1)
        assert sqrt_estimate(2182) == pytest.approx(121.5, abs=0.1)


def test_criterion_6_arrival_model_properties():
    with _criterion(
        "criterion 6: peak-time fraction, noiseless recovery 2%, "
        "truncated K 10%, 100-bucket fit <1s"
    ):
        ratio = rayleigh_cdf(4.0, 200.0, 4.0) / 200.0
        # The stated six-figure constant is itself a rounding of the exact
        # fraction; the ratio must match the analytic value to 1e-9 and the
        # printed decimal to its own precision.
        assert ratio == pytest.approx(1.0 - math.exp(-0.5), abs=1e-9)
        assert ratio == pytest.approx(0.393469, abs=1e-6)

        fit = fit_arrival(expected_bucket_counts(200.0, 4.0, 12))
        assert fit.k_total == pytest.approx(200.0, rel=0.02)
        assert fit.sigma == pytest.approx(4.0, rel=0.02)

        truncated = [round(c) for c in expected_bucket_counts(500.0, 6.0, 6)]
        assert fit_arrival(truncated).k_total == pytest.approx(500.0, rel=0.10)

        counts_100 = expected_bucket_counts(1000.0, 22.0, 100)
        started = time.perf_counter()
        fit_arrival(counts_100)
        assert time.perf_counter() - started < 1.0


def test_criterion_7_inverse_efficiency():
    with _criterion(
        "criterion 7: 239 initial defects in 17 revisions implies ~34.4% efficiency"
    ):
        efficiency = infer_efficiency(239.0, revisions=17, injection_rate=0.07)
        assert efficiency == pytest.approx(0.344, abs=0.01)
        defects, revisions = 239.0, 1
        while defects >= SIGNOFF_THRESHOLD:
            defects *= 1.0 - efficiency * (1.0 - 0.07)
            revisions += 1
        assert revisions <= 17


def test_criterion_8_monte_carlo_reproducibility():
    with _criterion(
        "criterion 8: seeded simulation is byte-stable; mean within 6 +/- 1.5 "
        "at 10k trials; zero injection always 1 revision"
    ):
        params = ProcessParams(units=2182, injection_rate=0.07, removal_efficiency=0.75)
        one = simulate_monte_carlo(params, trials=10_000, seed=424242)
        two = simulate_monte_carlo(params, trials=10_000, seed=424242)
        assert json.dumps(one.histogram) == json.dumps(two.histogram)
        assert one.mean_revisions == pytest.approx(6.0, abs=1.5)

        clean = ProcessParams(units=100, injection_rate=0.0, removal_efficiency=1.0)
        outcome = simulate_monte_carlo(clean, trials=500, seed=7)
        assert outcome.histogram == {1: 500}


def test_criterion_9_property_suite_spot_checks():
    with _criterion(
        "criterion 9: round-trip, conservation, monotonicity, means-intersection, "
        "CLI byte-determinism"
    ):
        # Defect-log round trip on a fixed ledger.
        records = [
            make_record(rid=f"d{i}", found_offset_h=3.5 * i, fixed_offset_h=3.5 * i + 20)
            for i in range(25)
        ]
        assert parse_defect_log(serialize_defect_log(records)) == records

        # Arrival-series conservation against an independent recount.
        offsets = [0, 1, 26, 30, 49, 50, 51, 120, 121, 300]
        found = [make_record(rid=f"a{i}", found_offset_h=h) for i, h in enumerate(offsets)]
        width = timedelta(days=2)
        counts = arrival_series(found, width)
        assert sum(counts) == len(found)
        for k, count in enumerate(counts):
            lo = EPOCH + k * width
            assert count == sum(1 for r in found if lo <= r.found_at < lo + width)

        # Monotonicity across the default grid and in the unit count.
        small, grid, large = (revision_table(u) for u in (1000, 2000, 4000))
        for row in grid.cells:
            assert all(a <= b for a, b in zip(row, row[1:]))
        for upper, lower in zip(grid.cells, grid.cells[1:]):
            assert all(a >= b for a, b in zip(upper, lower))
        for s_row, m_row, l_row in zip(small.cells, grid.cells, large.cells):
            assert all(s <= m <= l for s, m, l in zip(s_row, m_row, l_row))

        # OLS line passes through the sample means.
        points = [
            SizePoint(uf=uf, issues=issues)
            for uf, issues in ((120, 70), (480, 85), (900, 98), (2100, 145), (4000, 230))
        ]
        model = fit_linear(points)
        mean_x = sum(p.uf for p in points) / len(points)
        mean_y = sum(p.issues for p in points) / len(points)
        assert model.intercept + model.slope * mean_x == pytest.approx(mean_y, abs=1e-9)

        # CLI output is byte-identical across runs.
        argv = ("forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.75")
        first, second = _cli(*argv), _cli(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
