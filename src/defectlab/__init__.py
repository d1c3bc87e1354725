"""defectlab: defect ledgers, quality metrics, revision forecasts,
size-based issue estimators, and Rayleigh arrival fitting.

The package loads lazily (PEP 562): ``import defectlab`` imports no
submodule, and a public name or submodule is imported on first
access, so each command pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

#: Each public name, by the submodule that defines it.
_PUBLIC = {
    "charts": ("arrival_chart",),
    "cli": ("run",),
    "errors": ("DefectLabError", "DivergenceError", "NonConvergenceError", "ValidationError"),
    "ledger": (
        "DefectRecord",
        "ProductProfile",
        "arrival_series",
        "build_ledger",
        "dump_ledger",
        "load_ledger",
        "parse_defect_log",
        "parse_product_registry",
        "parse_series",
    ),
    "metrics": (
        "MetricsSummary",
        "defect_density",
        "removal_efficiency",
        "removal_rate",
        "summaries_to_csv",
        "summaries_to_json",
        "summarize",
    ),
    "rayleigh": (
        "PEAK_FRACTION",
        "RayleighFit",
        "expected_bucket_counts",
        "fit_arrival",
        "rayleigh_cdf",
        "remaining_defects",
        "time_to_threshold",
    ),
    "revisions": (
        "SIGNOFF_THRESHOLD",
        "McOutcome",
        "ProcessParams",
        "RevisionGrid",
        "RevisionTrajectory",
        "grid_to_csv",
        "grid_to_json",
        "infer_efficiency",
        "initial_defects",
        "revision_table",
        "revisions_to_signoff",
        "simulate_monte_carlo",
    ),
    "sizing": (
        "DEFAULT_LINEAR_MODEL",
        "DEFAULT_SQRT_MODEL",
        "LinearSizeModel",
        "NegativeInterceptWarning",
        "SizePoint",
        "SqrtSizeModel",
        "fit_linear",
        "fit_sqrt",
        "linear_estimate",
        "parse_scatter",
        "residual_sum_of_squares",
        "sqrt_estimate",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC, *__all__})
