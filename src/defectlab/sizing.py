"""Issue-count estimators from model size, and fits to scatter data.

Two model forms: a straight line in the unit count, and a square-root
curve through the origin.  Defaults reproduce a published audit of 30
spreadsheet models averaging 2,182 unique formulas and 151 issues.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Callable, Sequence

from .errors import (
    ValidationError, Value, count_problem, plain_number, real_problem, show_int, show_value
)


class NegativeInterceptWarning(UserWarning):
    """A fitted line predicts negative issues for small models.

    Issue counts cannot be negative, but the fit is descriptive, so
    the intercept is reported as-is rather than clamped silently.
    """


class LinearSizeModel(Value):
    """issues = intercept + slope * uf"""

    intercept: float
    slope: float

    def __post_init__(self) -> None:
        # Signed, unlike a real_problem; NaN and integers past float range fail too.
        if not all(abs(x) <= sys.float_info.max for x in (self.intercept, self.slope)):
            raise ValidationError("model parameters must be finite")
        if self.slope < 0:
            raise ValidationError(f"slope must be >= 0, got {self.slope}")


class SqrtSizeModel(Value):
    """issues = coefficient * sqrt(uf)"""

    coefficient: float

    def __post_init__(self) -> None:
        if problem := real_problem("coefficient", self.coefficient, zero=True):
            raise ValidationError(problem)


class SizePoint(Value):
    """One observed (unique formulas, issues) pair."""

    uf: int
    issues: int

    def __post_init__(self) -> None:
        _check_uf(self.uf)
        if problem := count_problem("issues", self.issues):
            raise ValidationError(problem)


#: The audit's line and curve.  The line's slope is forced by the line
#: passing through the sample means: (151 - 62) / 2182 = 0.0408.  The
#: slope printed alongside the audit, 0.41, is inconsistent with the
#: audit's own averages (it would predict about 957 issues for the
#: average 2,182-formula model against a reported 151), so it is treated
#: as a typographic slip.
DEFAULT_LINEAR_MODEL = LinearSizeModel(intercept=62.0, slope=0.0408)
DEFAULT_SQRT_MODEL = SqrtSizeModel(coefficient=2.6)


def _check_uf(uf: int) -> None:
    if uf <= 0:
        raise ValidationError(f"uf must be positive, got {show_int(uf)}")
    if problem := count_problem("uf", uf):
        raise ValidationError(problem)


def linear_estimate(uf: int, model: LinearSizeModel = DEFAULT_LINEAR_MODEL) -> float:
    """Expected issues for a model of the given size, linear form."""
    _check_uf(uf)
    return model.intercept + model.slope * uf


def sqrt_estimate(uf: int, model: SqrtSizeModel = DEFAULT_SQRT_MODEL) -> float:
    """Expected issues for a model of the given size, square-root form."""
    _check_uf(uf)
    return model.coefficient * math.sqrt(uf)


def fit_linear(points: Sequence[SizePoint]) -> LinearSizeModel:
    """Ordinary least squares line through the scatter.

    Needs at least two distinct sizes.  The fitted line always passes
    through the sample means.  A negative fitted intercept triggers
    NegativeInterceptWarning but is reported unchanged.
    """
    if len({p.uf for p in points}) < 2:
        raise ValidationError("linear fit needs at least 2 distinct uf values")
    n = len(points)
    mean_x = sum(p.uf for p in points) / n
    mean_y = sum(p.issues for p in points) / n
    # fsum rounds each float sum exactly, so the fit is the same on every Python.
    sxx = math.fsum((p.uf - mean_x) ** 2 for p in points)
    sxy = math.fsum((p.uf - mean_x) * (p.issues - mean_y) for p in points)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    if intercept < 0:
        warnings.warn(
            f"fitted intercept {intercept:.6g} is negative; reported as-is",
            NegativeInterceptWarning,
            stacklevel=2,
        )
    return LinearSizeModel(intercept=intercept, slope=slope)


def fit_sqrt(points: Sequence[SizePoint]) -> SqrtSizeModel:
    """Least squares through the origin in sqrt(uf).

    coefficient = sum(issues * sqrt(uf)) / sum(uf), since sum(uf) is
    the sum of squared regressors.
    """
    if not points:
        raise ValidationError("sqrt fit needs at least 1 point")
    numerator = math.fsum(p.issues * math.sqrt(p.uf) for p in points)
    return SqrtSizeModel(coefficient=numerator / sum(p.uf for p in points))


def residual_sum_of_squares(
    points: Sequence[SizePoint], predict: Callable[[int], float]
) -> float:
    return math.fsum((p.issues - predict(p.uf)) ** 2 for p in points)


def _scatter_row(fields: list[str]) -> SizePoint:
    try:
        uf, issues = (plain_number(int, field) for field in fields)
    except ValueError:
        raise ValidationError(
            f"uf and issues must be integers, got {show_value(fields)}"
        ) from None
    return SizePoint(uf=uf, issues=issues)


def parse_scatter(text: str) -> list[SizePoint]:
    """Parse scatter CSV with columns ``uf,issues``."""
    # Imported here, so that estimate --uf loads neither ledger nor csv.
    from .ledger import read_csv_table

    return read_csv_table(text, ("uf", "issues"), "scatter file", _scatter_row)
