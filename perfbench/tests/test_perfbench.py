"""Tests of the benchmark itself: deterministic inputs, checks that catch
planted faults, and a traced launcher that leaves the CLI's output alone.

    python3 -m pytest perfbench/tests -q

Faults are planted in a copy of the package under a temporary
directory; the repository's ``src/`` is never modified.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest

import check
import gen
import run

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
SMALL = run.Workload(rows=200, mc_trials=50)


def make_bench(tmp_path: Path, src: Path = SRC, keys: set[str] | None = None) -> run.Bench:
    """A bench on small inputs, optionally running only some command kinds."""
    env = dict(os.environ, PYTHONPATH=str(src))
    bench = run.Bench(SMALL, seed=5, work=tmp_path / "work", env=env)
    bench.work.mkdir()
    bench.generate()
    if keys is not None:
        full = bench.commands
        bench.commands = lambda: [c for c in full() if c.key in keys]
    return bench


def run_checked(bench: run.Bench, passes: int = 2) -> dict[str, float]:
    """A checked first pass and further passes, as a benchmark run makes them."""
    bench.run_pass(0, traced=False)
    bench.check_outputs()
    measured = [bench.run_pass(n, traced=False) for n in range(1, passes)]
    return run.end_to_end(bench, measured, setup_s=0.0)


def planted(tmp_path: Path, relative: str, old: str, new: str) -> Path:
    """A copy of the package with one source edit."""
    src = tmp_path / "src"
    shutil.copytree(SRC / "defectlab", src / "defectlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "defectlab" / relative
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1, f"fault site not unique in {relative}: {old!r}"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return src


def test_generator_is_deterministic(tmp_path):
    first = gen.write_inputs(tmp_path / "a", seed=11, rows=300)
    second = gen.write_inputs(tmp_path / "b", seed=11, rows=300)
    gen.write_inputs(tmp_path / "c", seed=12, rows=300)
    assert first == second
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "defects.csv").read_bytes() != (tmp_path / "c" / "defects.csv").read_bytes()


def test_generator_plants_the_rows_it_reports(tmp_path):
    expect = gen.write_inputs(tmp_path, seed=3, rows=500)
    good = (tmp_path / "defects.csv").read_text().splitlines()[1:]
    bad = (tmp_path / "defects_invalid.csv").read_text().splitlines()[1:]
    differing = [n for n, (a, b) in enumerate(zip(good, bad), start=1) if a != b]
    assert differing == expect["planted_rows"]
    assert sum(expect["per_product"].values()) == expect["rows"] == len(good)


def test_closed_form_agrees_with_stepping():
    for units in (1, 7, 2000, 2182, 10**6):
        for r in (0.0, 0.03, 0.07, 0.3, 0.9):
            for e in (0.05, 0.2, 0.75, 1.0):
                d0, d, n = units * r, 1 - e * (1 - r), 1
                current = d0
                while current >= 0.5:
                    current *= d
                    n += 1
                assert check.revisions_match(n, units, r, e, 0.5), (units, r, e, n)
                assert not check.revisions_match(n + 2, units, r, e, 0.5)


def test_self_times_subtract_children():
    spans = [["cli.run", 0, 100, -1], ["ledger.dump_ledger", 10, 60, 0],
             ["ledger.build_ledger", 20, 50, 1]]
    assert run.self_times(spans) == {"cli.run": 50e-6, "ledger.dump_ledger": 20e-6,
                                     "ledger.build_ledger": 30e-6}


def test_seed_code_passes_every_check(tmp_path):
    bench = make_bench(tmp_path)
    metrics = run_checked(bench)
    assert bench.failures() == {}
    assert not bench.problems
    assert metrics["ok_ratio"] == 1.0
    assert set(metrics) == set(run.END_TO_END)
    assert all(metrics[name] > 0 for name in metrics if name != "setup_s")


def test_each_workload_runs_its_own_workflow(tmp_path):
    for name, workload in run.WORKLOADS.items():
        keys = [c.key for c in run.script(workload, tmp_path, tmp_path, seed=1)]
        assert keys == [k for k in run.COMMANDS if k in workload.commands], name
        assert set(keys) == set(workload.commands), name
        if {"metrics", "report"} & set(keys):
            assert keys[0] == "ingest", name


FAULTS = {
    "dropped ledger record": (
        "ledger.py",
        "    return json.dumps(build_ledger(profiles, records), indent=2) + \"\\n\"",
        "    return json.dumps(build_ledger(profiles, records[:-1]), indent=2) + \"\\n\"",
        {"ingest"},
    ),
    "histogram bucket off by one": (
        "cli.py",
        '"histogram": outcome.histogram,',
        '"histogram": {k: v + (i == 0) for i, (k, v) in enumerate(outcome.histogram.items())},',
        {"forecast_mc"},
    ),
    "wrong revision count": (
        "cli.py",
        '"revisions": trajectory.revisions,',
        '"revisions": trajectory.revisions + 1,',
        {"forecast"},
    ),
    "wrong grid cell": (
        "revisions.py",
        "row.append(len(_decay_states(units * dir_, dir_, dre, threshold)))",
        "row.append(len(_decay_states(units * dir_, dir_, dre, threshold)) + (dre == 0.5))",
        {"forecast_table"},
    ),
    "unseeded Monte Carlo": (
        "revisions.py",
        "np.random.SeedSequence(entropy=seed, spawn_key=(trial,))",
        "np.random.SeedSequence(spawn_key=(trial,))",
        {"forecast_mc_slow"},
    ),
    "diagnostics off by one row": (
        "ledger.py",
        "for row_no, row in enumerate(rows[1:], start=1):",
        "for row_no, row in enumerate(rows[1:], start=2):",
        {"ingest_invalid"},
    ),
    "miscounted metrics": (
        "metrics.py",
        "    count = len(records)\n",
        "    count = len(records) - (profile.product_id == 'p07')\n",
        {"metrics"},
    ),
    "biased arrival fit": (
        "cli.py",
        '        "sigma": fit.sigma,\n        "sigma_days": None',
        '        "sigma": fit.sigma * 1.2,\n        "sigma_days": None',
        {"fit_arrival"},
    ),
    "report drops a record": (
        "cli.py",
        '        "defects": len(records),\n        "buckets"',
        '        "defects": len(records) - 1,\n        "buckets"',
        {"report"},
    ),
    "wrong least squares": (
        "sizing.py",
        "    intercept = mean_y - slope * mean_x\n",
        "    intercept = mean_y - slope * mean_x + 0.5\n",
        {"estimate"},
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_planted_fault_raises_fail_ratio(tmp_path, fault):
    relative, old, new, keys = FAULTS[fault]
    bench = make_bench(tmp_path, planted(tmp_path, relative, old, new), keys)
    metrics = run_checked(bench)
    assert metrics["ok_ratio"] < 1.0, fault
    assert set(bench.failures()) == keys


def test_traced_launcher_matches_plain_cli(tmp_path):
    bench = make_bench(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    for index, cmd in enumerate(bench.commands()):
        plain = run.spawn([bench.python, "-m", "defectlab", *cmd.argv], bench.env,
                          out / "plain.out", out / "plain.err")
        spans = out / f"spans-{index}.json"
        traced = run.spawn([bench.python, str(run.HERE / "launch.py"), str(spans), *cmd.argv],
                           bench.env, out / "traced.out", out / "traced.err")
        assert traced.exit_code == plain.exit_code == cmd.exit_code, cmd.key
        assert (out / "traced.out").read_bytes() == (out / "plain.out").read_bytes(), cmd.key
        assert (out / "traced.err").read_bytes() == (out / "plain.err").read_bytes(), cmd.key
        record = json.loads(spans.read_text())
        assert record["spans"][0][0] == "cli.run"


def test_traced_pass_reports_every_layer(tmp_path):
    bench = make_bench(tmp_path)
    bench.run_pass(0, traced=False)
    bench.check_outputs()
    layers = run.layer_pass(bench.run_pass(1, traced=True), startup_ms=0.0)
    assert bench.failures() == {}
    expected = set(run.PER_LAYER) - {"startup.python_ms", "trace.overhead_ms"}
    assert set(layers) == expected
    for name in ("ledger.parse_defect_log_ms", "ledger.dump_ledger_ms", "ledger.build_ledger_ms",
                 "ledger.load_ledger_ms", "metrics.summarize_ms", "revisions.simulate_monte_carlo_ms",
                 "revisions.revision_table_ms", "rayleigh.fit_arrival_ms", "sizing.parse_scatter_ms",
                 "charts.arrival_chart_ms", "import.defectlab_ms"):
        assert layers[name] > 0, name
    assert layers["ledger.rows_read"] == 2 * SMALL.rows
    assert layers["ledger.rows_rejected"] == 2
    assert layers["revisions.mc_trials"] == 2 * SMALL.mc_trials
    assert layers["metrics.summarize_calls"] == gen.PRODUCTS


def test_benchmark_json_matches_the_runner():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
