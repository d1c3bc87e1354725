"""End-to-end CLI behaviour: flows, formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectlab import ProductProfile, cli, dump_ledger
from defectlab.cli import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VALIDATION,
    run,
)
from defectlab.ledger import format_timestamp, parse_timestamp
from defectlab.rayleigh import expected_bucket_counts

from conftest import EPOCH, make_record

SRC = str(Path(cli.__file__).resolve().parents[1])

DEFECT_HEADER = (
    "id,product_id,phase_injected,phase_found,found_at,fixed_at,severity,status,fix_changes"
)


def _defect_csv(rows: list[str]) -> str:
    return DEFECT_HEADER + "\n" + "\n".join(rows) + "\n"


def _sample_inputs(tmp_path):
    """A registry plus a fortnight of defects for one product."""
    defect_rows = []
    day = 24
    offsets = [0, 2, 30, 50, 52, 5 * day, 6 * day, 8 * day, 9 * day, 13 * day]
    for i, hours in enumerate(offsets):
        found = format_timestamp(EPOCH + timedelta(hours=hours))
        fixed = format_timestamp(EPOCH + timedelta(hours=hours + 48))
        defect_rows.append(f"d{i},m1,build,test,{found},{fixed},2,fixed,1")
    defects = tmp_path / "defects.csv"
    defects.write_text(_defect_csv(defect_rows), encoding="utf-8")
    products = tmp_path / "products.json"
    products.write_text(
        '[{"product_id":"m1","unique_formulas":2182,"kloc":1.2}]', encoding="utf-8"
    )
    return defects, products


class TestIngest:
    def test_builds_a_ledger_and_reports_counts(self, tmp_path, capsys):
        defects, products = _sample_inputs(tmp_path)
        out = tmp_path / "ledger.json"
        code = run([
            "ingest", "--defects", str(defects), "--products", str(products),
            "--out", str(out),
        ])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"products": 1, "defects": 10, "out": str(out)}
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert set(payload) == {"products", "defects"}

    def test_invalid_csv_leaves_no_output_file(self, tmp_path, capsys):
        defects = tmp_path / "defects.csv"
        defects.write_text(_defect_csv(["d1,m1,build,test,not-a-time,,2,open,"]))
        products = tmp_path / "products.json"
        products.write_text('[{"product_id":"m1","unique_formulas":10}]')
        out = tmp_path / "ledger.json"
        code = run([
            "ingest", "--defects", str(defects), "--products", str(products),
            "--out", str(out),
        ])
        assert code == EXIT_VALIDATION
        assert not out.exists()
        assert "row 1" in capsys.readouterr().err

    def test_a_nul_in_a_timestamp_leaves_no_output_file(self, tmp_path, capsys):
        defects = tmp_path / "defects.csv"
        defects.write_text(_defect_csv(["d1,m1,build,test,2004-03-01T10:00:00Z\0junk,,2,open,"]))
        products = tmp_path / "products.json"
        products.write_text('[{"product_id":"m1","unique_formulas":10}]')
        out = tmp_path / "ledger.json"
        code = run([
            "ingest", "--defects", str(defects), "--products", str(products),
            "--out", str(out),
        ])
        assert code == EXIT_VALIDATION
        assert not out.exists()
        assert "  row 1: invalid timestamp '2004-03-01T10:00:00Z\\x00junk'\n" in (
            capsys.readouterr().err
        )

    def test_missing_input_is_an_io_error(self, tmp_path, capsys):
        code = run([
            "ingest", "--defects", str(tmp_path / "nope.csv"),
            "--products", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "ledger.json"),
        ])
        assert code == EXIT_IO
        assert "error:" in capsys.readouterr().err


@pytest.fixture()
def sample_ledger(tmp_path):
    defects, products = _sample_inputs(tmp_path)
    out = tmp_path / "ledger.json"
    assert run([
        "ingest", "--defects", str(defects), "--products", str(products),
        "--out", str(out),
    ]) == EXIT_OK
    return out


class TestMetrics:
    def test_json_summary(self, sample_ledger, capsys):
        capsys.readouterr()
        assert run(["metrics", "--ledger", str(sample_ledger)]) == EXIT_OK
        (entry,) = json.loads(capsys.readouterr().out)
        assert entry["product_id"] == "m1"
        assert entry["defect_count"] == 10
        assert entry["removal_efficiency"] == 1.0
        assert entry["density_per_kloc"] == pytest.approx(10 / 1.2)
        assert entry["injection_rate_basis"].startswith("recorded defects")

    def test_csv_summary(self, sample_ledger, capsys):
        capsys.readouterr()
        assert run(["metrics", "--ledger", str(sample_ledger), "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("product_id,defect_count")
        assert len(lines) == 2

    def test_overfull_product_leaves_only_its_rate_absent(self, tmp_path, capsys):
        defects, products = _sample_inputs(tmp_path)
        extra = [f"x{i},m2,build,test,2004-03-01T10:00:00Z,,2,open," for i in range(3)]
        defects.write_text(defects.read_text() + "\n".join(extra) + "\n")
        products.write_text(
            '[{"product_id":"m1","unique_formulas":2182,"kloc":1.2},'
            '{"product_id":"m2","unique_formulas":2}]'
        )
        ledger_path = tmp_path / "ledger.json"
        assert run([
            "ingest", "--defects", str(defects), "--products", str(products),
            "--out", str(ledger_path),
        ]) == EXIT_OK
        capsys.readouterr()
        assert run(["metrics", "--ledger", str(ledger_path)]) == EXIT_OK
        m1, m2 = json.loads(capsys.readouterr().out)
        assert m1["injection_rate"] == 10 / 2182
        assert "injection_rate_basis" in m1
        assert m2["density_per_uf"] == 1.5
        assert m2["injection_rate"] is None
        assert "injection_rate_basis" not in m2

    def test_fixes_in_the_first_week_of_year_one(self, tmp_path, capsys):
        # The rate window ends on 0001-01-02, so it would start before year 1.
        defects = tmp_path / "defects.csv"
        defects.write_text(_defect_csv(
            ["d1,m1,build,test,0001-01-01T00:00:00Z,0001-01-02T00:00:00Z,2,fixed,1"]
        ))
        products = tmp_path / "products.json"
        products.write_text('[{"product_id":"m1","unique_formulas":10}]')
        out = tmp_path / "ledger.json"
        assert run(["ingest", "--defects", str(defects), "--products", str(products),
                    "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert run(["metrics", "--ledger", str(out)]) == EXIT_OK
        (entry,) = json.loads(capsys.readouterr().out)
        assert entry["removal_rate"] == pytest.approx(1 / 7)

    def test_unknown_product_rejected(self, sample_ledger, capsys):
        code = run(["metrics", "--ledger", str(sample_ledger), "--product", "ghost"])
        assert code == EXIT_VALIDATION
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["metrics", "report"])
    def test_an_over_long_unknown_product_is_cut(self, sample_ledger, tmp_path, capsys, command):
        argv = [command, "--ledger", str(sample_ledger), "--product", "q" * 100_000]
        if command == "report":
            argv += ["--svg", str(tmp_path / "report.svg")]
        assert run(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: unknown product 'qqq")
        assert err.endswith("... (100002 characters)\n")
        assert len(err) < 200

    def test_byte_determinism(self, sample_ledger, capsys):
        capsys.readouterr()
        run(["metrics", "--ledger", str(sample_ledger)])
        first = capsys.readouterr().out
        run(["metrics", "--ledger", str(sample_ledger)])
        second = capsys.readouterr().out
        assert first == second


class TestForecast:
    def test_audited_consultancy_forecast(self, capsys):
        code = run(["forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.75"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["revisions"] == 6
        assert payload["expected_defects"][0] == pytest.approx(152.74)
        assert payload["injection_rate_pct"] == pytest.approx(7.0)

    def test_no_net_removal_is_a_numeric_error(self, capsys):
        code = run(["forecast", "--units", "2000", "--dir", "0.07", "--dre", "0"])
        assert code == EXIT_NUMERIC
        assert "no net defect removal" in capsys.readouterr().err

    def test_missing_rates_rejected(self, capsys):
        assert run(["forecast", "--units", "2000"]) == EXIT_VALIDATION
        assert "--dir and --dre" in capsys.readouterr().err

    def test_table_json_has_all_cells(self, capsys):
        assert run(["forecast", "--units", "2000", "--table"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["cells"]) == 72
        assert payload["published_reference_units"] == 2000

    def test_table_csv_layout(self, capsys):
        code = run(["forecast", "--units", "2000", "--table", "--format", "csv"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 10
        assert lines[0].startswith("dre_pct\\dir_pct,3,4")

    def test_table_excludes_monte_carlo(self, capsys):
        code = run([
            "forecast", "--units", "2000", "--table", "--monte-carlo",
            "--trials", "10", "--seed", "1",
        ])
        assert code == EXIT_VALIDATION
        assert "mutually exclusive" in capsys.readouterr().err

    def test_csv_format_needs_table(self, capsys):
        code = run([
            "forecast", "--units", "2000", "--dir", "0.07", "--dre", "0.75",
            "--format", "csv",
        ])
        assert code == EXIT_VALIDATION
        assert "--table" in capsys.readouterr().err

    def test_monte_carlo_needs_trials_and_seed(self, capsys):
        code = run([
            "forecast", "--units", "2000", "--dir", "0.07", "--dre", "0.75",
            "--monte-carlo", "--trials", "50",
        ])
        assert code == EXIT_VALIDATION
        assert "--seed" in capsys.readouterr().err

    def test_monte_carlo_is_seed_deterministic(self, capsys):
        argv = [
            "forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.75",
            "--monte-carlo", "--trials", "100", "--seed", "9",
        ]
        assert run(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["trials"] == 100
        assert sum(payload["histogram"].values()) == 100

    def test_non_integer_units_rejected_by_the_grammar(self, capsys):
        assert run(["forecast", "--units", "lots", "--table"]) == EXIT_VALIDATION
        assert "invalid int value" in capsys.readouterr().err


class TestEstimate:
    def test_both_models_for_the_audit_size(self, capsys):
        assert run(["estimate", "--uf", "2182"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["linear"]["estimate"] == pytest.approx(151.0256)
        assert payload["sqrt"]["estimate"] == pytest.approx(121.45, abs=0.01)

    def test_single_model_selection(self, capsys):
        assert run(["estimate", "--uf", "400", "--model", "sqrt"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert "linear" not in payload
        assert payload["sqrt"]["estimate"] == pytest.approx(52.0)

    def test_uf_and_fit_are_mutually_exclusive(self, capsys):
        code = run(["estimate", "--uf", "100", "--fit", "whatever.csv"])
        assert code == EXIT_VALIDATION
        assert "exactly one" in capsys.readouterr().err
        assert run(["estimate"]) == EXIT_VALIDATION

    def test_fit_flow_reports_rss(self, tmp_path, capsys):
        scatter = tmp_path / "scatter.csv"
        scatter.write_text("uf,issues\n100,70\n900,98\n2500,160\n4900,260\n")
        assert run(["estimate", "--fit", str(scatter)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["points"] == 4
        assert payload["linear"]["rss"] >= 0.0
        assert payload["sqrt"]["rss"] >= 0.0

    def test_negative_intercept_warning_goes_to_stderr(self, tmp_path, capsys):
        scatter = tmp_path / "scatter.csv"
        scatter.write_text("uf,issues\n100,10\n200,30\n")
        assert run(["estimate", "--fit", str(scatter), "--model", "linear"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "negative" in captured.err
        assert json.loads(captured.out)["linear"]["intercept"] == pytest.approx(-10.0)


class TestFitArrival:
    def _series_file(self, tmp_path, starts, counts):
        path = tmp_path / "series.csv"
        rows = "\n".join(f"{s},{c}" for s, c in zip(starts, counts))
        path.write_text(f"bucket_start,count\n{rows}\n", encoding="utf-8")
        return path

    def test_numeric_day_offsets(self, tmp_path, capsys):
        counts = [round(c) for c in expected_bucket_counts(200.0, 4.0, 12)]
        path = self._series_file(tmp_path, [float(i) for i in range(12)], counts)
        assert run(["fit-arrival", "--series", str(path)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["k_total"] == pytest.approx(200.0, rel=0.05)
        assert payload["bucket_days"] == 1.0
        assert payload["sigma_days"] == pytest.approx(payload["sigma"])
        assert payload["cumulative_at_peak"] == pytest.approx(
            payload["k_total"] * 0.3934693402873666
        )

    def test_timestamp_starts_infer_weekly_spacing(self, tmp_path, capsys):
        counts = [round(c) for c in expected_bucket_counts(120.0, 3.0, 9)]
        starts = [format_timestamp(EPOCH + timedelta(days=7 * i)) for i in range(9)]
        path = self._series_file(tmp_path, starts, counts)
        assert run(["fit-arrival", "--series", str(path)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["bucket_days"] == pytest.approx(7.0)
        assert payload["sigma_days"] == pytest.approx(7.0 * payload["sigma"])

    def test_out_writes_the_payload_to_disk(self, tmp_path, capsys):
        counts = [round(c) for c in expected_bucket_counts(200.0, 4.0, 12)]
        path = self._series_file(tmp_path, [float(i) for i in range(12)], counts)
        out = tmp_path / "fit.json"
        assert run(["fit-arrival", "--series", str(path), "--out", str(out)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"out": str(out)}
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["buckets_used"] == 12

    def test_non_uniform_spacing_rejected(self, tmp_path, capsys):
        path = self._series_file(tmp_path, [0.0, 1.0, 3.0], [5, 9, 4])
        assert run(["fit-arrival", "--series", str(path)]) == EXIT_VALIDATION
        assert "not uniform" in capsys.readouterr().err

    def test_front_loaded_series_is_a_numeric_error(self, tmp_path, capsys):
        path = self._series_file(tmp_path, [0.0, 1.0, 2.0], [100, 0, 0])
        assert run(["fit-arrival", "--series", str(path)]) == EXIT_NUMERIC
        assert "boundary" in capsys.readouterr().err

    def test_bad_counts_rejected_with_rows(self, tmp_path, capsys):
        path = self._series_file(tmp_path, [0.0, 1.0, 2.0], [5, "many", 4])
        assert run(["fit-arrival", "--series", str(path)]) == EXIT_VALIDATION
        assert "row 2" in capsys.readouterr().err


class TestReport:
    def test_chart_fit_and_summary(self, tmp_path, capsys):
        # Rayleigh-shaped arrivals across 8 weekly buckets.
        counts = [round(c) for c in expected_bucket_counts(60.0, 3.0, 8)]
        rows, k = [], 0
        for bucket, count in enumerate(counts):
            for _ in range(count):
                found = format_timestamp(EPOCH + timedelta(days=7 * bucket, hours=k % 24))
                rows.append(f"d{k},m1,build,test,{found},,2,open,")
                k += 1
        defects = tmp_path / "defects.csv"
        defects.write_text(_defect_csv(rows), encoding="utf-8")
        products = tmp_path / "products.json"
        products.write_text('[{"product_id":"m1","unique_formulas":500}]')
        ledger_path = tmp_path / "ledger.json"
        assert run([
            "ingest", "--defects", str(defects), "--products", str(products),
            "--out", str(ledger_path),
        ]) == EXIT_OK
        capsys.readouterr()

        svg_path = tmp_path / "arrivals.svg"
        assert run(["report", "--ledger", str(ledger_path), "--svg", str(svg_path)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["defects"] == sum(counts)
        assert payload["buckets"] == len(counts)
        assert payload["fit_note"] is None
        assert payload["fit"]["sigma_days"] == pytest.approx(21.0, rel=0.15)

        root = ET.fromstring(svg_path.read_text(encoding="utf-8"))
        svg_ns = "{http://www.w3.org/2000/svg}"
        bars = [e for e in root.iter(f"{svg_ns}rect") if e.get("class") == "bar"]
        assert len(bars) == len(counts)
        overlays = [e for e in root.iter(f"{svg_ns}polyline") if e.get("class") == "fit"]
        assert len(overlays) == 1

    @pytest.mark.parametrize(("days", "note"), [
        ([0, 1], "fit needs at least 3 buckets, got 1"),
        # Counts of 1, 2 and 4 rise to the end, so no interior peak fits.
        ([0, 2, 3, 4, 4, 5, 5], "sigma search collapsed onto the upper boundary 9; the data "
                                "show no interior peak within the observed span"),
    ], ids=["too few buckets", "fit raises"])
    def test_unfittable_series_still_ships_the_chart(self, tmp_path, capsys, days, note):
        rows = [
            f"d{i},m1,build,test,{format_timestamp(EPOCH + timedelta(days=day))},,2,open,"
            for i, day in enumerate(days)
        ]
        defects = tmp_path / "defects.csv"
        defects.write_text(_defect_csv(rows), encoding="utf-8")
        products = tmp_path / "products.json"
        products.write_text('[{"product_id":"m1","unique_formulas":500}]')
        ledger_path = tmp_path / "ledger.json"
        run([
            "ingest", "--defects", str(defects), "--products", str(products),
            "--out", str(ledger_path),
        ])
        capsys.readouterr()
        svg_path = tmp_path / "arrivals.svg"
        assert run([
            "report", "--ledger", str(ledger_path), "--svg", str(svg_path),
            "--bucket-days", "2",
        ]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["fit"] is None
        assert payload["fit_note"] == note
        assert svg_path.exists()

    def test_empty_scope_rejected(self, sample_ledger, tmp_path, capsys):
        svg_path = tmp_path / "arrivals.svg"
        code = run([
            "report", "--ledger", str(sample_ledger), "--svg", str(svg_path),
            "--product", "ghost",
        ])
        assert code == EXIT_VALIDATION
        assert not svg_path.exists()


class TestGrammar:
    def test_help_exits_clean(self, capsys):
        assert run(["--help"]) == EXIT_OK
        assert "defectlab" in capsys.readouterr().out

    def test_no_command_is_a_usage_error(self, capsys):
        assert run([]) == EXIT_VALIDATION

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert run(["forecast", "--units", "10", "--sideways"]) == EXIT_VALIDATION


#: Values that argparse reads in ways easy to get wrong: a negative
#: number, an empty string, a float spelling, an underscore, a non-ASCII
#: digit, choices and non-choices, and tokens argparse treats as flags.
_ODD_VALUES = [
    "-1", "", "nan", "1_000", "٣", "json", "xml", "csv", "sqrt", "2182", "0.07", "é",
    "ledger.json", "--", "-h",
]


@st.composite
def _command_lines(draw) -> list[str]:
    """A subcommand (or ``-h``) and tokens made of its flags: pairs with
    odd values, repeats, ``--flag=value``, abbreviations, ``--`` and help."""
    command = draw(st.sampled_from([*cli._COMMANDS, "-h"]))
    # "-h" is no subcommand; it takes forecast's flags.
    table = cli._COMMANDS.get(command, cli._COMMANDS["forecast"])[2]
    flag = st.sampled_from(sorted(table))
    value = st.one_of(
        st.sampled_from(_ODD_VALUES), st.integers(0, 10**4).map(str), st.text(max_size=3)
    )
    token = st.one_of(
        flag,
        value,
        st.tuples(flag, value).map("=".join),
        flag.map(lambda name: name[:-1]),
        st.sampled_from(["--", "-h", "--help"]),
    )
    pair = st.tuples(flag, value)
    pieces = draw(st.lists(st.one_of(pair, pair, pair, st.tuples(token)), max_size=8))
    # Required flags first, so that more lines are complete.
    required = [(name, draw(value)) for name, keywords in table.items()
                if keywords.get("required")]
    return [command, *(part for piece in [*required, *pieces] for part in piece)]


def _attributes(args) -> str:
    # repr tells 1 from 1.0 and True, and makes nan equal to itself.
    return repr(sorted(vars(args).items()))


class TestExactReader:
    """``cli._read_exact`` either leaves a command line to argparse or
    reads it exactly as argparse does."""

    @settings(max_examples=400, deadline=None)
    @given(_command_lines())
    def test_reads_as_argparse_does_or_declines(self, argv):
        read = cli._read_exact(argv)
        if read is not None:
            assert _attributes(read) == _attributes(cli._build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        ["forecast", "--units", "1_000", "--dir", "nan", "--dre", "0.75", "--units", "٣"],
        ["forecast", "--units", "2000", "--table", "--table", "--format", "csv"],
        ["metrics", "--ledger", "", "--product", "é", "--format", "json"],
        ["estimate", "--uf", "7", "--model", "sqrt"],
        ["report", "--ledger", "ledger.json", "--svg", "r.svg", "--bucket-days", "1e-3"],
    ])
    def test_reads_well_formed_lines(self, argv):
        read = cli._read_exact(argv)
        assert read is not None
        assert _attributes(read) == _attributes(cli._build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["forecast", "-h"], ["forecast", "--units=10"], ["forecast", "--uni", "10"],
        ["forecast", "--units", "10", "--"], ["forecast", "--units", "-1"],
        ["forecast", "--units"], ["forecast", "--units", "x"], ["metrics", "--ledger"],
        ["metrics", "--ledger", "l.json", "--format", "xml"], ["forecast", "--dir", "0.07"],
        ["forecast", "--units", "10", "extra"], ["forecast", "--units", "10", "--sideways"],
    ])
    def test_leaves_the_rest_to_argparse(self, argv):
        assert cli._read_exact(argv) is None


#: One argv for each way out of ``run``, with the exit code it gives.
EXIT_PATHS = {
    "success": (["forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.75"], EXIT_OK),
    "usage error": (["forecast", "--units", "10", "--sideways"], EXIT_VALIDATION),
    "help": (["--help"], EXIT_OK),
    "validation error": (["forecast", "--units", "2000"], EXIT_VALIDATION),
    "I/O error": (["metrics", "--ledger", "no-such-dir/ledger.json"], EXIT_IO),
    "numeric error": (
        ["forecast", "--units", "2000", "--dir", "0.07", "--dre", "0"], EXIT_NUMERIC
    ),
}


def _set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture()
def collector():
    """Puts the cyclic collector back as the test found it."""
    was_enabled = gc.isenabled()
    yield
    _set_collector(was_enabled)


def _cyclic_garbage(tmp_path, rows: int) -> list[int]:
    """Objects in reference cycles that ``ingest``, ``metrics`` and
    ``report`` each leave unreachable, on a log of ``rows`` fixed defects.
    The defects are found over the same 25 days whatever ``rows`` is, so
    the arrival series keeps its length."""
    lines = []
    for i in range(rows):
        found = EPOCH + timedelta(hours=i % 600)
        lines.append(
            f"d{i},m1,build,test,{format_timestamp(found)},"
            f"{format_timestamp(found + timedelta(hours=5))},2,fixed,1"
        )
    defects = tmp_path / "defects.csv"
    defects.write_text(_defect_csv(lines), encoding="utf-8")
    products = tmp_path / "products.json"
    products.write_text('[{"product_id":"m1","unique_formulas":2182}]', encoding="utf-8")
    ledger = str(tmp_path / "ledger.json")
    found = []
    for argv in (
        ["ingest", "--defects", str(defects), "--products", str(products), "--out", ledger],
        ["metrics", "--ledger", ledger],
        ["report", "--ledger", ledger, "--svg", str(tmp_path / "report.svg")],
    ):
        gc.collect()
        gc.disable()
        assert run(argv) == EXIT_OK
        found.append(gc.collect())
    return found


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("path", sorted(EXIT_PATHS))
    def test_run_leaves_the_collector_as_it_found_it(self, collector, capsys, path, enabled):
        argv, code = EXIT_PATHS[path]
        _set_collector(enabled)
        assert run(argv) == code
        assert gc.isenabled() is enabled

    def test_the_command_runs_paused_and_an_escaping_error_restores_it(
        self, collector, monkeypatch
    ):
        seen = []

        def handler(args):
            seen.append(gc.isenabled())
            raise RuntimeError("escapes run")

        monkeypatch.setitem(cli._COMMANDS, "forecast", (handler, *cli._COMMANDS["forecast"][1:]))
        gc.enable()
        with pytest.raises(RuntimeError, match="escapes run"):
            run(["forecast", "--units", "10"])
        assert seen == [False]
        assert gc.isenabled()

    def test_cyclic_garbage_does_not_grow_with_the_ledger(self, collector, tmp_path, capsys):
        """The premise of the pause: what the collector would find is a
        fixed set of objects per command, not a share of every row."""
        _cyclic_garbage(tmp_path, 300)  # imports the modules and fills caches
        small = _cyclic_garbage(tmp_path, 300)
        large = _cyclic_garbage(tmp_path, 3000)
        assert all(b <= a + 20 for a, b in zip(small, large)), (small, large)


#: Calls ``cli.main`` once per argv of a JSON list, as the console script
#: would, and prints the exit codes; an atexit hook then prints the
#: collector's state as the interpreter shuts down.
MAIN_CHILD = """
import atexit, gc, json, sys
from defectlab import cli
atexit.register(lambda: print(json.dumps([gc.isenabled(), gc.get_freeze_count()])))
codes = []
for argv in json.loads(sys.argv[1]):
    sys.argv = ["defectlab", *argv]
    try:
        cli.main()
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps(codes))
"""


def test_main_exits_with_the_collector_off_and_the_heap_frozen(capsys):
    argvs = [
        ["forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.75"],
        ["forecast", "--units", "0", "--dir", "0.07", "--dre", "0.75"],
    ]
    capsys.readouterr()
    assert [run(argv) for argv in argvs] == [EXIT_OK, EXIT_VALIDATION]
    expected = capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", MAIN_CHILD, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True,
    )
    *out, codes, collector = done.stdout.splitlines(keepends=True)
    assert json.loads(codes) == [EXIT_OK, EXIT_VALIDATION]
    assert "".join(out) == expected.out
    assert done.stderr == expected.err
    assert len([line for line in done.stderr.splitlines() if line.startswith("error:")]) == 1
    enabled, frozen = json.loads(collector)
    assert not enabled
    assert frozen > 0


GOLDEN = Path(__file__).parent / "data" / "golden"

#: Command lines that write to stdout, run from a copy of the golden
#: inputs and the ledger ``golden_dir`` ingests from them.  Only
#: ``metrics`` and ``forecast --table`` print more than stdout's 8 KiB
#: buffer, so the others write nothing until stdout is flushed.
STDOUT_COMMANDS = {
    "metrics": ["metrics", "--ledger", "ledger.json"],
    "forecast": ["forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.75"],
    "forecast --table": ["forecast", "--units", "2000", "--table"],
    "forecast --monte-carlo": ["forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.75",
                               "--monte-carlo", "--trials", "100", "--seed", "7"],
    "estimate --uf": ["estimate", "--uf", "2182"],
    "fit-arrival": ["fit-arrival", "--series", "series.csv"],
    "report": ["report", "--ledger", "ledger.json", "--svg", "report.svg"],
    "--help": ["--help"],
}


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory) -> Path:
    work = tmp_path_factory.mktemp("golden")
    for source in GOLDEN.iterdir():
        shutil.copy(source, work / source.name)
    argv = ["ingest", "--defects", str(work / "defects.csv"),
            "--products", str(work / "products.json"), "--out", str(work / "ledger.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == EXIT_OK
    return work


def _child(argv: list[str], cwd: Path, **popen) -> subprocess.CompletedProcess:
    """``python -m defectlab`` in a fresh process with stdout buffered, as
    it is by default: PYTHONUNBUFFERED would write each print at once."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, "-B", "-m", "defectlab", *argv],
        cwd=cwd, env=env, stderr=subprocess.PIPE, text=True, **popen,
    )


def _assert_one_error_line(stderr: str) -> None:
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error: "), stderr


@contextlib.contextmanager
def _unwritable_stdout(sink: str):
    """The ``subprocess.run`` keywords that start a child with ``sink`` as its stdout."""
    if sink == "closed":
        yield {"preexec_fn": lambda: os.close(1)}
    elif sink == "closed pipe":
        read, write = os.pipe()
        os.close(read)
        try:
            yield {"stdout": write}
        finally:
            os.close(write)
    else:
        with open(sink, "wb") as full:
            yield {"stdout": full}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("sink", ["closed", "closed pipe", "/dev/full"])
@pytest.mark.parametrize("command", list(STDOUT_COMMANDS))
def test_an_unwritable_stdout_is_an_io_error(golden_dir, command, sink):
    with _unwritable_stdout(sink) as popen:
        done = _child(STDOUT_COMMANDS[command], golden_dir, **popen)
    assert done.returncode == EXIT_IO
    _assert_one_error_line(done.stderr)


#: A command, the output file it writes, and a limit on its process's
#: file size below that file's full size: the ledger is 63,010 bytes,
#: and the chart several KiB.
PARTIAL_WRITES = {
    "ingest": (["ingest", "--defects", "defects.csv", "--products", "products.json",
                "--out", "limited.json"], "limited.json", 16 * 1024),
    "report": (["report", "--ledger", "ledger.json", "--svg", "limited.svg"],
               "limited.svg", 1024),
}


@pytest.mark.parametrize("command", list(PARTIAL_WRITES))
def test_a_write_that_fails_part_way_leaves_no_file(golden_dir, command):
    import resource

    argv, out, limit = PARTIAL_WRITES[command]
    done = _child(argv, golden_dir, stdout=subprocess.PIPE,
                  preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)))
    assert done.returncode == EXIT_IO
    _assert_one_error_line(done.stderr)
    assert not (golden_dir / out).exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_through_a_symlink_leaves_the_link(golden_dir):
    link = golden_dir / "full.json"
    link.symlink_to("/dev/full")
    done = _child(["fit-arrival", "--series", "series.csv", "--out", str(link)], golden_dir,
                  stdout=subprocess.PIPE)
    assert done.returncode == EXIT_IO
    _assert_one_error_line(done.stderr)
    assert os.readlink(link) == "/dev/full"


NOT_UTF8 = b"\xff\xfe"
LONG_FIELD = "x" * 140_000
DEEP_JSON = "[" * 200_000 + "]" * 200_000
#: A 401-digit count, beyond float range (about 1.8e308).
HUGE = "9" * 401
PRODUCTS = '[{"product_id":"m1","unique_formulas":10}]'
#: An integer literal past Python's default limit of 4300 digits.
LONG_INT = "1" + "0" * 5000
LONG_INT_LEDGER = (
    '{"products": [{"product_id": "m1", "unique_formulas": ' + LONG_INT + '}], "defects": []}'
)
EMPTY_LEDGER = '{"products": [{"product_id": "m1", "unique_formulas": 10}], "defects": []}'
#: A header whose first cell holds a newline and a would-be second error line.
NEWLINE_HEADER = '"id\nerror: second line",b\n'
#: A registry entry with an unknown key holding a would-be second error line.
NEWLINE_KEY_REGISTRY = '[{"product_id":"m1","unique_formulas":10,"zz\\nerror: injected":1}]'


def _registry(size: str, value: str = HUGE) -> str:
    """A one-product registry whose ``size`` is ``value``."""
    return f'[{{"product_id":"m1","{size}":{value}}}]'


def _file(tmp_path, name: str, content: str | bytes) -> str:
    path = tmp_path / name
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    return str(path)


def _ledger(tmp_path, product: dict | None = None, defect: dict | None = None) -> str:
    """A valid two-record ledger spanning 27 years, with optional extra keys."""
    records = [make_record(rid="d1"), make_record(rid="d2", found_offset_h=24 * 365 * 27)]
    profiles = [ProductProfile(product_id="m1", unique_formulas=100)]
    document = json.loads(dump_ledger(profiles, records))
    document["products"][0].update(product or {})
    document["defects"][0].update(defect or {})
    return _file(tmp_path, "ledger.json", json.dumps(document))


def _ingest(tmp_path, defects: str | bytes, products: str | bytes) -> list[str]:
    def name(base: str, content: str | bytes) -> str:
        return f"not-utf8-{base}" if isinstance(content, bytes) else base

    return [
        "ingest", "--defects", _file(tmp_path, name("defects.csv", defects), defects),
        "--products", _file(tmp_path, name("products.json", products), products),
        "--out", str(tmp_path / "out.json"),
    ]


#: Inputs that must end in exit 1 with a single error line, by case.
CONTRACT_CASES = {
    "newline in a header cell, ingest --defects": lambda t: _ingest(t, NEWLINE_HEADER, PRODUCTS),
    "newline in a header cell, estimate --fit": lambda t: [
        "estimate", "--fit", _file(t, "scatter.csv", NEWLINE_HEADER),
    ],
    "newline in a header cell, fit-arrival --series": lambda t: [
        "fit-arrival", "--series", _file(t, "series.csv", NEWLINE_HEADER),
    ],
    "newline in an unknown registry key, ingest --products": lambda t: _ingest(
        t, DEFECT_HEADER + "\n", NEWLINE_KEY_REGISTRY
    ),
    "subnormal threshold, forecast": lambda t: [
        "forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.3", "--threshold", "5e-324",
    ],
    "four problems, forecast": lambda t: [
        "forecast", "--units", "0", "--dir", "2", "--dre", "nan", "--threshold", "1e-320",
    ],
    "subnormal threshold, forecast --table": lambda t: [
        "forecast", "--units", "2000", "--table", "--threshold", "5e-324",
    ],
    "long field, ingest --defects": lambda t: _ingest(
        t, DEFECT_HEADER + "\n" + LONG_FIELD + "\n", PRODUCTS
    ),
    "long field, estimate --fit": lambda t: [
        "estimate", "--fit", _file(t, "scatter.csv", f"uf,issues\n100,{LONG_FIELD}\n"),
    ],
    "long field, fit-arrival --series": lambda t: [
        "fit-arrival", "--series", _file(t, "series.csv", f"bucket_start,count\n{LONG_FIELD},1\n"),
    ],
    "non-UTF-8, ingest --defects": lambda t: _ingest(t, NOT_UTF8, PRODUCTS),
    "non-UTF-8, ingest --products": lambda t: _ingest(t, DEFECT_HEADER + "\n", NOT_UTF8),
    "non-UTF-8, metrics --ledger": lambda t: [
        "metrics", "--ledger", _file(t, "not-utf8.json", NOT_UTF8),
    ],
    "non-UTF-8, report --ledger": lambda t: [
        "report", "--ledger", _file(t, "not-utf8.json", NOT_UTF8), "--svg", str(t / "out.svg"),
    ],
    "non-UTF-8, estimate --fit": lambda t: [
        "estimate", "--fit", _file(t, "not-utf8.csv", NOT_UTF8),
    ],
    "non-UTF-8, fit-arrival --series": lambda t: [
        "fit-arrival", "--series", _file(t, "not-utf8.csv", NOT_UTF8),
    ],
    "non-UTF-8, a newline in the path, estimate --fit": lambda t: [
        "estimate", "--fit", _file(t, "not-utf8\nerror: x.csv", NOT_UTF8),
    ],
    "an unrecognized token holding a newline, forecast": lambda t: [
        "forecast", "--units", "5", "--dir", "0.1", "--dre", "0.5", "x\nerror: injected",
    ],
    "an over-long --seed, forecast": lambda t: [
        "forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.75",
        "--monte-carlo", "--trials", "1", "--seed", "1" + "0" * 5000,
    ],
    "an over-long --units, forecast": lambda t: ["forecast", "--units", "x" + "y" * 300],
    "report --bucket-days 1e10": lambda t: [
        "report", "--ledger", _ledger(t), "--svg", str(t / "out.svg"), "--bucket-days", "1e10",
    ],
    "report --bucket-days 1e-9": lambda t: [
        "report", "--ledger", _ledger(t), "--svg", str(t / "out.svg"), "--bucket-days", "1e-9",
    ],
    "report --bucket-days 1e-12": lambda t: [
        "report", "--ledger", _ledger(t), "--svg", str(t / "out.svg"), "--bucket-days", "1e-12",
    ],
    "ledger product with an unknown key": lambda t: [
        "metrics", "--ledger", _ledger(t, product={"loc": 3}),
    ],
    "ledger defect with an unknown key": lambda t: [
        "metrics", "--ledger", _ledger(t, defect={"colour": "red"}),
    ],
    "deeply nested JSON, ingest --products": lambda t: _ingest(t, DEFECT_HEADER + "\n", DEEP_JSON),
    "deeply nested JSON, metrics --ledger": lambda t: [
        "metrics", "--ledger", _file(t, "deep.json", DEEP_JSON),
    ],
    "deeply nested JSON, report --ledger": lambda t: [
        "report", "--ledger", _file(t, "deep.json", DEEP_JSON), "--svg", str(t / "out.svg"),
    ],
    "forecast --seed -1": lambda t: [
        "forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.75",
        "--monte-carlo", "--trials", "10", "--seed", "-1",
    ],
    "forecast --monte-carlo --trials 10^12": lambda t: [
        "forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.75",
        "--monte-carlo", "--trials", "1000000000000", "--seed", "1",
    ],
    "forecast --monte-carlo --trials past MAX_COUNT": lambda t: [
        "forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.75",
        "--monte-carlo", "--trials", "100000000000000000", "--seed", "1",
    ],
    "forecast --units beyond float range": lambda t: [
        "forecast", "--units", HUGE, "--dir", "0.07", "--dre", "0.75",
    ],
    "forecast --table --units beyond float range": lambda t: [
        "forecast", "--units", HUGE, "--table",
    ],
    "forecast --units 0 --table": lambda t: ["forecast", "--units", "0", "--table"],
    "forecast --trials and --seed without --monte-carlo": lambda t: [
        "forecast", "--units", "2000", "--dir", "0.07", "--dre", "0.75",
        "--trials", "100000", "--seed", "1",
    ],
    "forecast --seed without --monte-carlo": lambda t: [
        "forecast", "--units", "2000", "--dir", "0.07", "--dre", "0.75", "--seed", "1",
    ],
    "forecast --table --trials": lambda t: [
        "forecast", "--units", "2000", "--table", "--trials", "10",
    ],
    "forecast --table --dir": lambda t: ["forecast", "--units", "2000", "--table", "--dir", "0.5"],
    "forecast --table --dre": lambda t: ["forecast", "--units", "2000", "--table", "--dre", "0.5"],
    "forecast --monte-carlo --units beyond int64": lambda t: [
        "forecast", "--units", str(10**20), "--dir", "0.07", "--dre", "0.75",
        "--monte-carlo", "--trials", "10", "--seed", "1",
    ],
    "estimate --uf beyond float range": lambda t: ["estimate", "--uf", HUGE],
    "estimate --fit, uf beyond float range": lambda t: [
        "estimate", "--fit", _file(t, "scatter.csv", f"uf,issues\n{HUGE},3\n10,2\n"),
    ],
    "estimate --fit, issues beyond float range": lambda t: [
        "estimate", "--fit", _file(t, "scatter.csv", f"uf,issues\n100,{HUGE}\n10,2\n"),
    ],
    "integer past the digit limit, ingest --products": lambda t: _ingest(
        t, DEFECT_HEADER + "\n", _registry("unique_formulas", LONG_INT)
    ),
    "integer past the digit limit, metrics --ledger": lambda t: [
        "metrics", "--ledger", _file(t, "ledger.json", LONG_INT_LEDGER),
    ],
    "integer past the digit limit, report --ledger": lambda t: [
        "report", "--ledger", _file(t, "ledger.json", LONG_INT_LEDGER), "--svg", str(t / "out.svg"),
    ],
    "registry unique_formulas beyond float range": lambda t: _ingest(
        t, DEFECT_HEADER + "\n", _registry("unique_formulas")
    ),
    "registry function_points beyond float range": lambda t: _ingest(
        t, DEFECT_HEADER + "\n", _registry("function_points")
    ),
    "registry kloc beyond float range": lambda t: _ingest(t, DEFECT_HEADER + "\n", _registry("kloc")),
    "ledger kloc beyond float range, metrics --ledger": lambda t: [
        "metrics", "--ledger", _ledger(t, product={"kloc": int(HUGE)}),
    ],
    "ledger kloc 1e-310, metrics --ledger": lambda t: [
        "metrics", "--ledger", _ledger(t, product={"kloc": 1e-310}),
    ],
    "ledger kloc 1e-310, metrics --ledger --format csv": lambda t: [
        "metrics", "--ledger", _ledger(t, product={"kloc": 1e-310}), "--format", "csv",
    ],
    "report on a ledger with no defects": lambda t: [
        "report", "--ledger", _file(t, "ledger.json", EMPTY_LEDGER), "--svg", str(t / "out.svg"),
    ],
    "series spacing beyond float range, fit-arrival --series": lambda t: [
        "fit-arrival", "--series",
        _file(t, "series.csv", "bucket_start,count\n-1e308,1\n1e308,2\n1e308,3\n"),
    ],
    "series spacing past the widest bucket, fit-arrival --series": lambda t: [
        "fit-arrival", "--series",
        _file(t, "series.csv", "bucket_start,count\n0,1\n8e307,2\n1.6e308,3\n"),
    ],
    "series count beyond float range, fit-arrival --series": lambda t: [
        "fit-arrival", "--series",
        _file(t, "series.csv", f"bucket_start,count\n0,1\n1,{HUGE}\n2,3\n"),
    ],
}


@pytest.mark.parametrize("command", ["report"])
def test_bucket_days_is_checked_before_the_input_is_read(tmp_path, capsys, command):
    missing = str(tmp_path / "missing")
    inputs = ["--ledger", missing, "--svg", str(tmp_path / "out.svg")]
    assert run([command, *inputs, "--bucket-days", "0"]) == EXIT_VALIDATION
    (error,) = capsys.readouterr().err.splitlines()
    assert error.startswith("error: --bucket-days must be within (0, ")


#: The whole stderr of the contract cases whose message is pinned.
CONTRACT_STDERR = {
    "forecast --units 0 --table": "error: invalid grid parameters\n  units must be >= 1, got 0\n",
    # Every problem with the flags, listed in the order they are checked.
    "four problems, forecast": (
        "error: invalid process parameters\n"
        "  units must be >= 1, got 0\n"
        "  injection_rate must be within [0, 1], got 2.0\n"
        "  removal_efficiency must be within [0, 1], got nan\n"
        "  threshold must be >= 2.2250738585072014e-308, got 1e-320\n"
    ),
    # Flags that the chosen mode would otherwise ignore.
    "forecast --trials and --seed without --monte-carlo": (
        "error: --trials and --seed apply only to --monte-carlo\n"
    ),
    "forecast --seed without --monte-carlo": (
        "error: --trials and --seed apply only to --monte-carlo\n"
    ),
    "forecast --table --trials": "error: --trials and --seed apply only to --monte-carlo\n",
    "forecast --table --dir": "error: --dir and --dre do not apply to --table output\n",
    "forecast --table --dre": "error: --dir and --dre do not apply to --table output\n",
    # A width that a timedelta rounds to zero microseconds.
    "report --bucket-days 1e-12": "error: --bucket-days 1e-12 rounds to a zero-width bucket\n",
    # Two defects over a subnormal size is a density beyond float range.
    "ledger kloc 1e-310, metrics --ledger": "error: density of 2 over a size of 1e-310 overflows\n",
    "ledger kloc 1e-310, metrics --ledger --format csv": (
        "error: density of 2 over a size of 1e-310 overflows\n"
    ),
    "report on a ledger with no defects": "error: no defect records to chart\n",
    # MAX_TRIALS is the cap a trial count is refused by, not MAX_COUNT.
    "forecast --monte-carlo --trials past MAX_COUNT": (
        "error: trials must be <= 10000000, got 100000000000000000\n"
    ),
    # argparse joins unrecognized tokens raw; the message escapes the newline.
    "an unrecognized token holding a newline, forecast": (
        "error: unrecognized arguments: x\\nerror: injected\n"
    ),
    # argparse echoes a value that does not convert whole; the message is cut.
    "an over-long --seed, forecast": (
        "error: argument --seed: invalid int value: '1" + "0" * 62 + "... (5039 characters)\n"
    ),
    "an over-long --units, forecast": (
        "error: argument --units: invalid int value: 'x" + "y" * 61 + "... (340 characters)\n"
    ),
    # An inferred width wider than any --bucket-days would be accepted.
    "series spacing beyond float range, fit-arrival --series": (
        "error: bucket spacing of inf days is wider than 999999999 days\n"
    ),
    "series spacing past the widest bucket, fit-arrival --series": (
        "error: bucket spacing of 8e+307 days is wider than 999999999 days\n"
    ),
}


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_bad_input_exits_1_with_one_error_line(tmp_path, capsys, case):
    argv = CONTRACT_CASES[case](tmp_path)
    capsys.readouterr()
    assert run(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (error,) = [line for line in err.splitlines() if line.startswith("error:")]
    if case.startswith("non-UTF-8"):
        assert "not-utf8" in error
    if case in CONTRACT_STDERR:
        assert err == CONTRACT_STDERR[case]


_TEN_AM = datetime(2004, 3, 1, 10, tzinfo=timezone.utc)

#: Each stamp form the README lists, with the instant it reads as, and
#: texts outside the timestamp grammar, with None: all but the last three
#: were read as 10:00 UTC before the grammar was stated.
STAMP_CASES = {
    "2004-03-01T10:00:00Z": _TEN_AM,
    "2004-03-01t10:00:00z": _TEN_AM,
    "2004-03-01 10:00:00+00:00": _TEN_AM,
    "2004-03-01T10:00:00-00:00": _TEN_AM,
    " 2004-03-01T10:00:00Z\t": _TEN_AM,
    "2004-03-01T10:00:00.25Z": _TEN_AM + timedelta(milliseconds=250),
    "2004-03-01T10:00:00,000001+00:00": _TEN_AM + timedelta(microseconds=1),
    "2004-03-01x10:00:00Z": None,
    "2004-03-01_10:00:00Z": None,
    "2004-03-01\x0110:00:00Z": None,
    "20040301x100000Z": None,
    "2004-03-01T10Z": None,
    "2004-03-01T10:00Z": None,
    "2004-W10-1T10:00:00Z": None,
    "2004-03-01T10:00:00+00:00:00": None,
    "2004-03-01T10:00:00+0000": None,
    "2004-03-01T10:00:00xZ": None,
    "٢٠٠٤-03-01T10:00:00Z": None,
    "2004-03-01T10:00:00Z\x00": None,
}


@pytest.mark.parametrize("command", ["ingest", "metrics"])
@pytest.mark.parametrize("text", sorted(STAMP_CASES), ids=ascii)
def test_a_stamp_reads_the_same_through_ingest_and_metrics(tmp_path, capsys, command, text):
    # ingest reads the stamp from a CSV cell, metrics from a ledger's found_at.
    if command == "ingest":
        argv = _ingest(tmp_path, _defect_csv([f'd1,m1,build,test,"{text}",,2,open,']), PRODUCTS)
        what, where = "defect log", "row 1"
    else:
        argv = ["metrics", "--ledger", _ledger(tmp_path, defect={"found_at": text})]
        what, where = "ledger", "defects[0]"
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err
    expected = STAMP_CASES[text]
    if expected is None:
        assert code == EXIT_VALIDATION
        assert err == f"error: {what} failed validation\n  {where}: invalid timestamp {text!r}\n"
        return
    assert (code, err) == (EXIT_OK, "")
    assert parse_timestamp(text) == expected
    if command == "ingest":
        (entry,) = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))["defects"]
        assert entry["found_at"] == format_timestamp(expected)


#: Edge values for the numeric flags: NaN, the infinities, zeros,
#: negatives, tiny fractions, and integers past int64 and float range.
EDGE_VALUES = ("nan", "-nan", "inf", "-inf", "0", "-0.0", "-1", "1e-300", "-1e-300",
               "1e308", str(10**20), HUGE, "-" + HUGE)
_floats = st.sampled_from(EDGE_VALUES) | st.floats().map(repr) | st.floats(0, 1).map(repr)
_ints = st.sampled_from(EDGE_VALUES) | st.integers().map(str) | st.integers(1, 10**6).map(str)


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    """A ledger spanning 30 days and a numeric-offset series, for the
    flag-value test; the short span keeps small buckets few."""
    directory = tmp_path_factory.mktemp("flags")
    records = [make_record(rid="d1"), make_record(rid="d2", found_offset_h=24 * 30)]
    profiles = [ProductProfile(product_id="m1", unique_formulas=100)]
    return {
        "ledger": _file(directory, "ledger.json", dump_ledger(profiles, records)),
        "series": _file(directory, "series.csv", "bucket_start,count\n0,1\n1,4\n2,6\n3,5\n4,2\n"),
        "svg": str(directory / "out.svg"),
    }


@st.composite
def _flag_argvs(draw, inputs: dict) -> list[str]:
    """One command with generated values for its numeric flags.

    Values go in ``--flag=value`` form, so that ``-inf`` reaches the
    flag's type instead of reading as an option.  The Monte Carlo gets
    at most 50 trials of at most 10,000 units, so no case runs long.
    """
    def maybe(flag: str, values) -> list[str]:
        return [f"{flag}={draw(values)}"] if draw(st.booleans()) else []

    command = draw(st.sampled_from(
        ["forecast", "forecast --table", "forecast --monte-carlo", "estimate", "fit-arrival",
         "report"]
    ))
    if command == "forecast --monte-carlo":
        argv = ["forecast", f"--units={draw(st.integers(-2, 10_000))}", "--monte-carlo",
                f"--trials={draw(st.integers(-2, 50))}", f"--seed={draw(_ints)}"]
    elif command.startswith("forecast"):
        argv = ["forecast", f"--units={draw(_ints)}", *command.split()[1:],
                *maybe("--format", st.sampled_from(["json", "csv"]))]
    elif command == "estimate":
        argv = ["estimate", f"--uf={draw(_ints)}", *maybe("--model", st.sampled_from(
            ["linear", "sqrt", "both"]))]
    elif command == "fit-arrival":
        argv = ["fit-arrival", "--series", inputs["series"]]
    else:
        argv = ["report", "--ledger", inputs["ledger"], "--svg", inputs["svg"],
                *maybe("--bucket-days", _floats)]
    if command.startswith("forecast"):
        for flag in ("--dir", "--dre", "--threshold"):
            argv += maybe(flag, _floats)
    return argv


@settings(deadline=None)
@given(data=st.data())
def test_flag_values_keep_the_exit_code_contract(flag_inputs, data):
    argv = data.draw(_flag_argvs(flag_inputs))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_IO, EXIT_NUMERIC)
    assert "Traceback" not in err.getvalue()
    assert len([line for line in err.getvalue().splitlines() if line.startswith("error:")]) <= 1
