"""The defectlab benchmark: fresh-process CLI latency, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the commands run the package under
``src/``.  A single client drives a closed loop: one ``defectlab``
command runs as a fresh process at a time, and the next starts only
when it has exited.  A pass is one run through the workload's command
script: the commands of one user workflow, on the workload's inputs.

Set-up writes the seeded inputs three times (checking that the copies
are identical), then runs one untimed warm-up pass and checks the
meaning of its outputs with ``check.py``.  Every later run of a command
in the same run must give the same bytes as that checked first run.
Then passes run until ``--seconds`` have gone by.

After every command the runner also starts bare interpreters
(``python3 -I -c pass``), which no file of the checkout can change:
one per BARE_SPACING_S of the command's wall time, and at least one.
Its wall time is the unit of the gated pass time: on a shared host of
a few virtual CPUs the speed of the whole machine shifts by a fifth to
a third for minutes at a time, which moves the commands and the bare
interpreter beside them alike, so their ratio holds where seconds do
not.

With ``--trace 0`` the last stdout line holds the end-to-end metrics,
medians over the passes.  With ``--trace 1`` untraced passes alternate
with passes in which every command runs under ``launch.py``, and the
last line holds the per-layer metrics from the traced passes' spans.
The line before it records the environment: python and numpy versions,
CPU count, load averages, and the median wall and CPU time in seconds
of a pass, of each command kind and of the bare interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: A command still running after this long is killed and counted failed.
COMMAND_TIMEOUT_S = 60.0
#: Set-up writes the inputs this many times and reports the median.
SETUP_REPEATS = 3
#: A command is followed by one bare interpreter per this many seconds of
#: its wall time, and at least one.  A single bare start varies by a
#: third, so a run needs dozens for a median that holds to a few percent.
BARE_SPACING_S = 0.5
#: A bare interpreter peaking above this means the runner is not lean:
#: a child's peak RSS counts what it shared with its parent before exec.
BARE_RSS_LIMIT_MB = 32.0


#: Every command kind, in the order a pass runs them: ``metrics`` and
#: ``report`` read the ledger ``ingest`` writes.
COMMANDS = (
    "ingest", "ingest_invalid", "metrics", "report", "forecast", "forecast_table",
    "forecast_mc", "forecast_mc_slow", "estimate", "fit_arrival",
)


@dataclass(frozen=True)
class Workload:
    rows: int
    mc_trials: int
    commands: tuple[str, ...] = COMMANDS


WORKLOADS = {
    # The ledger workflow on 50k rows: row parsing, encoding and loading.
    # At 100k rows a pass takes about 13 s, too long for a run to hold
    # enough passes for a steady median.
    "ledger-50k": Workload(rows=50_000, mc_trials=200,
                           commands=("ingest", "ingest_invalid", "metrics", "report")),
    # The paper's Monte Carlo at 10k trials, at two parameter sets.
    "monte-carlo": Workload(rows=1_000, mc_trials=10_000,
                            commands=("forecast_mc", "forecast_mc_slow")),
    # The small commands: interpreter start and import dominate.
    "small-cli": Workload(rows=1_000, mc_trials=200, commands=(
        "ingest", "metrics", "report", "forecast", "forecast_table", "estimate", "fit_arrival",
    )),
}

END_TO_END = {
    "setup_s": "s",
    "pass_rel": "bare_starts",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "startup.python_ms": "ms",
    "import.defectlab_ms": "ms",
    "import.numpy_loaded": "count",
    "cli.self_ms": "ms",
    "cli.bytes_in": "bytes",
    "cli.bytes_out": "bytes",
    "ledger.parse_defect_log_ms": "ms",
    "ledger.parse_us_per_row": "us",
    "ledger.rows_read": "count",
    "ledger.rows_rejected": "count",
    "ledger.parse_timestamp_calls": "count",
    "ledger.format_timestamp_calls": "count",
    "ledger.dump_ledger_ms": "ms",
    "ledger.build_ledger_ms": "ms",
    "ledger.load_ledger_ms": "ms",
    "ledger.load_us_per_row": "us",
    "ledger.arrival_series_ms": "ms",
    "metrics.summarize_ms": "ms",
    "metrics.summarize_calls": "count",
    "metrics.serialise_ms": "ms",
    "revisions.simulate_monte_carlo_ms": "ms",
    "revisions.mc_us_per_trial": "us",
    "revisions.mc_trials": "count",
    "revisions.mc_censored": "count",
    "revisions.revision_table_ms": "ms",
    "revisions.grid_to_json_ms": "ms",
    "revisions.revisions_to_signoff_ms": "ms",
    "revisions.revision_steps": "count",
    "rayleigh.fit_arrival_ms": "ms",
    "rayleigh.buckets": "count",
    "rayleigh.cdf_calls": "count",
    "sizing.parse_scatter_ms": "ms",
    "sizing.fit_ms": "ms",
    "charts.arrival_chart_ms": "ms",
    "charts.svg_bytes": "bytes",
    "trace.overhead_ms": "ms",
    "trace.unaccounted_ms": "ms",
}

#: Per-layer times that add up the self time of several spans.
SPAN_GROUPS = {
    "metrics.serialise_ms": ("metrics.summaries_to_json",),
    "sizing.fit_ms": ("sizing.fit_linear", "sizing.fit_sqrt", "sizing.residual_sum_of_squares"),
}
#: Per-layer counts copied from the launcher's counters.
COUNTS = (
    "cli.bytes_in", "cli.bytes_out", "ledger.rows_read", "ledger.rows_rejected",
    "ledger.parse_timestamp_calls", "ledger.format_timestamp_calls", "metrics.summarize_calls",
    "revisions.mc_trials",
    "revisions.mc_censored", "revisions.revision_steps", "rayleigh.buckets", "rayleigh.cdf_calls",
    "charts.svg_bytes",
)
#: Per-unit costs: (metric, time metric, count it is divided by).
PER_UNIT = (
    ("ledger.parse_us_per_row", "ledger.parse_defect_log_ms", "ledger.rows_read"),
    ("ledger.load_us_per_row", "ledger.load_ledger_ms", "ledger.records_loaded"),
    ("revisions.mc_us_per_trial", "revisions.simulate_monte_carlo_ms", "revisions.mc_trials"),
)


@dataclass(frozen=True)
class Command:
    key: str
    argv: tuple[str, ...]
    exit_code: int
    files: tuple[str, ...] = ()


def script(workload: Workload, inputs: Path, outputs: Path, seed: int) -> list[Command]:
    """One pass: each of the workload's command kinds once."""
    i, o = str(inputs), str(outputs)
    ledger = f"{o}/ledger.json"
    audited = ("--units", "2182", "--dir", "0.07", "--dre", "0.75")
    slow = ("--units", "2182", "--dir", "0.20", "--dre", "0.30")
    mc = ("--monte-carlo", "--trials", str(workload.mc_trials), "--seed", str(seed))
    ledger_commands = [
        Command("ingest", ("ingest", "--defects", f"{i}/defects.csv", "--products",
                           f"{i}/products.json", "--out", ledger), 0, (ledger,)),
        Command("ingest_invalid", ("ingest", "--defects", f"{i}/defects_invalid.csv",
                                   "--products", f"{i}/products.json", "--out",
                                   f"{o}/ledger_invalid.json"), 1),
        Command("metrics", ("metrics", "--ledger", ledger), 0),
        Command("report", ("report", "--ledger", ledger, "--svg", f"{o}/report.svg"), 0,
                (f"{o}/report.svg",)),
    ]
    model_commands = [
        Command("forecast", ("forecast", *audited), 0),
        Command("forecast_table", ("forecast", "--units", "2000", "--table"), 0),
        Command("forecast_mc", ("forecast", *audited, *mc), 0),
        Command("forecast_mc_slow", ("forecast", *slow, *mc), 0),
        Command("estimate", ("estimate", "--fit", f"{i}/scatter.csv"), 0),
        Command("fit_arrival", ("fit-arrival", "--series", f"{i}/series.csv"), 0),
    ]
    return [c for c in ledger_commands + model_commands if c.key in workload.commands]


@dataclass
class Sample:
    """One command run: wall and CPU seconds, peak RSS, and its verdict,
    with the wall times of the bare interpreters started after it."""

    key: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    digest: str
    problems: list[str]
    bare_wall_s: list[float]
    spans_path: str | None = None


@dataclass
class Spawn:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int


def spawn(argv: list[str], env: dict, stdout: Path, stderr: Path) -> Spawn:
    """Run argv to completion; usage comes from wait4 on this child alone."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ])
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    return Spawn(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 os.waitstatus_to_exitcode(status))


def digest(paths: list[Path]) -> str:
    """SHA-256 over the files' names and bytes, read in chunks so the
    runner stays small."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        try:
            with open(path, "rb") as handle:
                while chunk := handle.read(1 << 20):
                    h.update(chunk)
        except FileNotFoundError:
            h.update(b"<missing>")
    return h.hexdigest()


@dataclass
class Bench:
    """One benchmark run in its own work directory under the checkout."""

    workload: Workload
    seed: int
    work: Path
    env: dict
    python: str = sys.executable
    samples: list[Sample] = field(default_factory=list)
    first_digest: dict[str, str] = field(default_factory=dict)
    verdicts: dict[str, list[str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def inputs(self) -> Path:
        return self.work / "in"

    @property
    def outputs(self) -> Path:
        return self.work / "out"

    def commands(self) -> list[Command]:
        return script(self.workload, self.inputs, self.outputs, self.seed)

    def generate(self) -> list[float]:
        """Write the inputs SETUP_REPEATS times; keep the first copy."""
        times, digests = [], []
        for n in range(SETUP_REPEATS):
            target = self.work / f"in{n}"
            start = time.perf_counter()
            subprocess.run(
                [self.python, str(HERE / "gen.py"), "--seed", str(self.seed),
                 "--rows", str(self.workload.rows), "--out", str(target)],
                check=True, env=self.env,
            )
            times.append(time.perf_counter() - start)
            digests.append(digest(sorted(target.iterdir())))
            if n:
                shutil.rmtree(target)
        if len(set(digests)) != 1:
            self.problems.append("the generator wrote different files for the same seed")
        (self.work / "in0").rename(self.inputs)
        self.outputs.mkdir()
        (self.work / "spans").mkdir()
        return times

    def bare_interpreter(self) -> Spawn:
        """Run one bare interpreter, which nothing in the checkout affects."""
        run = spawn([self.python, "-I", "-c", "pass"], self.env, self.work / "bare.out",
                    self.work / "bare.err")
        if run.exit_code != 0:
            self.problems.append(f"a bare interpreter exited {run.exit_code}")
        return run

    def check_lean(self) -> None:
        """A bare interpreter's peak RSS checks that this runner is lean."""
        peak = self.bare_interpreter().rss_mb
        if peak > BARE_RSS_LIMIT_MB:
            self.problems.append(
                f"a bare interpreter peaked at {peak:.1f} MB; child RSS readings are inflated"
            )

    def run_pass(self, pass_id: int, traced: bool) -> list[Sample]:
        samples = []
        for index, cmd in enumerate(self.commands()):
            stdout = self.outputs / f"{cmd.key}.out"
            stderr = self.outputs / f"{cmd.key}.err"
            spans_path = None
            if traced:
                spans_path = str(self.work / "spans" / f"{pass_id}-{index}-{cmd.key}.json")
                argv = [self.python, str(HERE / "launch.py"), spans_path, *cmd.argv]
            else:
                argv = [self.python, "-m", "defectlab", *cmd.argv]
            run = spawn(argv, self.env, stdout, stderr)
            problems = []
            if run.exit_code != cmd.exit_code:
                problems.append(f"exit code {run.exit_code}, expected {cmd.exit_code}")
            if b"Traceback" in stderr.read_bytes():
                problems.append("traceback on stderr")
            out_digest = digest([stdout, stderr, *map(Path, cmd.files)])
            first = self.first_digest.setdefault(cmd.key, out_digest)
            if out_digest != first:
                problems.append("output differs from this command's first run")
            bare = [self.bare_interpreter().wall_s
                    for _ in range(max(1, round(run.wall_s / BARE_SPACING_S)))]
            samples.append(Sample(cmd.key, run.wall_s, run.cpu_s, run.rss_mb, out_digest,
                                  problems, bare, spans_path))
        self.samples.extend(samples)
        return samples

    def check_outputs(self) -> None:
        """Check the meaning of the outputs the first pass left."""
        unique = {cmd.key: cmd for cmd in self.commands()}
        (self.work / "commands.json").write_text(json.dumps([
            {"key": c.key, "argv": list(c.argv), "stdout": str(self.outputs / f"{c.key}.out"),
             "stderr": str(self.outputs / f"{c.key}.err")}
            for c in unique.values()
        ]))
        result = subprocess.run(
            [self.python, str(HERE / "check.py"), str(self.work)],
            env=self.env, stdout=subprocess.PIPE, check=False,
        )
        try:
            self.verdicts = json.loads(result.stdout)
        except json.JSONDecodeError:
            self.verdicts = {key: [f"check.py exited {result.returncode}"] for key in unique}

    def failed(self, sample: Sample) -> bool:
        checked = sample.digest == self.first_digest.get(sample.key)
        return bool(sample.problems) or (checked and bool(self.verdicts.get(sample.key, ["unchecked"])))

    def failures(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for s in self.samples:
            if self.failed(s):
                out.setdefault(s.key, []).extend(s.problems or self.verdicts.get(s.key, []))
        return {k: sorted(set(v)) for k, v in out.items()}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def pass_totals(passes: list[list[Sample]]) -> dict[str, float]:
    """Medians over passes, times in seconds."""
    return {
        "pass_s": _median([sum(s.wall_s for s in p) for p in passes]),
        "cpu_s": _median([sum(s.cpu_s for s in p) for p in passes]),
        "bare_s": _median([b for p in passes for s in p for b in s.bare_wall_s]),
        "peak_rss_mb": _median([max(s.rss_mb for s in p) for p in passes]),
    }


def end_to_end(bench: Bench, passes: list[list[Sample]], setup_s: float) -> dict[str, float]:
    totals = pass_totals(passes)
    attempted = len(bench.samples)
    return {
        "setup_s": setup_s,
        "pass_rel": totals["pass_s"] / totals["bare_s"],
        "peak_rss_mb": totals["peak_rss_mb"],
        "ok_ratio": 1.0 - sum(map(bench.failed, bench.samples)) / attempted,
    }


def command_times(passes: list[list[Sample]], attribute: str) -> dict[str, float]:
    """Median wall or CPU seconds of each command kind."""
    keys = dict.fromkeys(s.key for p in passes for s in p)
    return {
        k: _median([getattr(s, attribute) for p in passes for s in p if s.key == k]) for k in keys
    }


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time in ms by span name: duration minus the children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, *_), ns in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + ns / 1e6
    return totals


def layer_pass(samples: list[Sample], startup_ms: float) -> dict[str, float]:
    """Per-layer values of one traced pass: sums over its commands,
    except the per-command import and unaccounted times (medians)."""
    totals: dict[str, float] = {}
    counts: dict[str, float] = {}
    imports, unaccounted, numpy_loaded = [], [], 0
    for sample in samples:
        path = Path(sample.spans_path)
        if not path.exists():  # the command died before writing; it is counted failed
            continue
        record = json.loads(path.read_text())
        for name, ms in self_times(record["spans"]).items():
            totals[name] = totals.get(name, 0.0) + ms
        for name, value in record["counters"].items():
            counts[name] = counts.get(name, 0) + value
        counts["metrics.summarize_calls"] = counts.get("metrics.summarize_calls", 0) + sum(
            1 for span in record["spans"] if span[0] == "metrics.summarize"
        )
        import_ms = record["import_ns"] / 1e6
        run_ms = sum((s[2] - s[1]) / 1e6 for s in record["spans"] if s[0] == "cli.run")
        imports.append(import_ms)
        unaccounted.append(sample.wall_s * 1000.0 - startup_ms - import_ms - run_ms)
        numpy_loaded += record["numpy_loaded"]

    out = {
        "import.defectlab_ms": _median(imports),
        "import.numpy_loaded": numpy_loaded,
        "trace.unaccounted_ms": _median(unaccounted),
        "cli.self_ms": sum(ms for name, ms in totals.items() if name.startswith("cli.")),
    }
    for name in PER_LAYER:
        if name.endswith("_ms") and name not in out and not name.startswith(("startup.", "trace.")):
            parts = SPAN_GROUPS.get(name, (name[: -len("_ms")],))
            out[name] = sum(totals.get(part, 0.0) for part in parts)
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    for name, time_metric, count in PER_UNIT:
        n = counts.get(count, 0)
        out[name] = 1000.0 * out[time_metric] / n if n else 0.0
    return out


def per_layer(untraced: list[list[Sample]], traced: list[list[Sample]]) -> dict:
    startup_ms = 1000.0 * pass_totals(untraced + traced)["bare_s"]
    layers = [layer_pass(p, startup_ms) for p in traced]
    metrics = {name: _median([layer[name] for layer in layers]) for name in layers[0]}
    metrics["startup.python_ms"] = startup_ms
    metrics["trace.overhead_ms"] = 1000.0 * (
        pass_totals(traced)["pass_s"] - pass_totals(untraced)["pass_s"]
    )
    return metrics


def environment(args: argparse.Namespace) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }


def run(args: argparse.Namespace, root: Path) -> dict:
    env_record = environment(args)
    # defectlab makes no BLAS call, but importing numpy starts OpenBLAS's
    # thread pool: on a 2-vCPU host that start cost 0 or about 60 ms per
    # command, depending on the host's state for minutes at a time, and
    # moved small-cli's pass time by a fifth.  One BLAS thread starts none.
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, work, env)
    try:
        gen_times = bench.generate()
        set_up = time.perf_counter()
        bench.run_pass(0, traced=False)
        bench.check_outputs()
        setup_s = statistics.median(gen_times) + time.perf_counter() - set_up

        untraced: list[list[Sample]] = []
        traced: list[list[Sample]] = []
        start = time.perf_counter()
        pass_id = 1
        while time.perf_counter() - start < args.seconds or (args.trace and not traced):
            in_trace = bool(args.trace) and len(untraced) > len(traced)
            (traced if in_trace else untraced).append(bench.run_pass(pass_id, in_trace))
            pass_id += 1

        bench.check_lean()
        if args.trace:
            metrics = per_layer(untraced, traced)
            units = PER_LAYER
        else:
            metrics = end_to_end(bench, untraced, setup_s)
            units = END_TO_END
        failures = bench.failures()
        env_record.update(
            loadavg_end=list(os.getloadavg()),
            passes={"untraced": len(untraced), "traced": len(traced)},
            **{f"median_{k}": v for k, v in pass_totals(untraced).items() if k != "peak_rss_mb"},
            command_wall_s=command_times(untraced, "wall_s"),
            command_cpu_s=command_times(untraced, "cpu_s"),
            setup_generate_s=gen_times,
            failures=failures,
            problems=bench.problems,
        )
        failed = sum(map(bench.failed, bench.samples))
        print(json.dumps({"env": env_record}))
        return {
            "correct": failed == 0 and not bench.problems,
            "attempted": len(bench.samples),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "defectlab" / "__init__.py").is_file():
        print(f"error: no src/defectlab under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    print(json.dumps(run(args, root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
