"""Rayleigh defect-arrival model: fitting, projection, readiness.

Defect discoveries over time tend to rise to a peak and tail off; the
Rayleigh family models the cumulative count as
K * (1 - exp(-t^2 / (2*sigma^2))).  The discovery rate peaks at
t = sigma, which is also the cumulative curve's inflection point, and
about 39.35% of lifetime defects have been found by then.  Fitting K
and sigma to early arrival data projects the lifetime total and when
the remaining count falls low enough to release.  The fit takes plain
per-bucket counts, whether from a ledger's arrival series or from a
series file.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterable, Sequence

from .errors import (
    MAX_BUCKETS, MAX_COUNT, NonConvergenceError, ValidationError, Value, count_problem,
    real_problem, refuse,
)

#: Fraction of lifetime defects discovered by t = sigma: 1 - e^(-1/2).
PEAK_FRACTION = 1.0 - math.exp(-0.5)

#: Golden-section ratio for the one-dimensional sigma search.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Sigma search interval: [SIGMA_FLOOR, SIGMA_SPAN_FACTOR * last edge].
SIGMA_FLOOR = 0.1
SIGMA_SPAN_FACTOR = 3.0

#: Relative width at which the sigma search stops.
DEFAULT_REL_TOL = 1e-6


def _sigma_problem(sigma: float) -> str | None:
    # The curve's scale, 2*sigma*sigma, must be a normal float: from
    # about 1e-162 down it is 0, and evaluating the curve divides by it.
    if problem := real_problem("sigma", sigma):
        return problem
    if 2.0 * sigma * sigma < sys.float_info.min:
        return f"sigma must be >= {math.sqrt(sys.float_info.min / 2)}, got {sigma}"
    return None


class RayleighFit(Value):
    """Fitted arrival model.

    ``sigma`` is the peak-discovery time in bucket units; ``k_total``
    the projected lifetime defect count.  ``k_total`` may undershoot
    the observed cumulative count on noisy data; that is the fit being
    honest, not a bug.  ``sse`` is measured on cumulative counts.
    """

    k_total: float
    sigma: float
    sse: float
    buckets_used: int

    def __post_init__(self) -> None:
        refuse(
            "invalid arrival fit",
            real_problem("k_total", self.k_total),
            _sigma_problem(self.sigma),
            real_problem("sse", self.sse, zero=True),
            count_problem("buckets_used", self.buckets_used, least=3),
        )


def _unit_curve(sigma: float, times: Iterable[float]) -> list[float]:
    """The unit-K cumulative curve 1 - exp(-t^2 / (2*sigma^2)) at each time."""
    scale = 2.0 * sigma * sigma
    return [-math.expm1(-(t * t) / scale) for t in times]


def rayleigh_cdf(t: float, k_total: float, sigma: float) -> float:
    """Cumulative defects discovered by time t."""
    if problem := (real_problem("t", t, zero=True) or _sigma_problem(sigma)
                   or real_problem("k_total", k_total)):
        raise ValidationError(problem)
    return k_total * _unit_curve(sigma, (float(t),))[0]


def expected_bucket_counts(k_total: float, sigma: float, buckets: int) -> list[float]:
    """Per-bucket expected discoveries implied by the model."""
    if problem := count_problem("buckets", buckets, least=1, most=MAX_BUCKETS):
        raise ValidationError(problem)
    edges = [rayleigh_cdf(float(t), k_total, sigma) for t in range(buckets + 1)]
    return [b - a for a, b in zip(edges, edges[1:])]


def _sse_at(sigma: float, cumulative: Sequence[float], edges: Sequence[float]) -> tuple[float, float]:
    shape = _unit_curve(sigma, edges)
    # For fixed sigma the SSE is quadratic in K; its minimizer is the
    # projection of the cumulative data onto the unit-K curve.
    # fsum rounds each sum exactly, so the fit is the same on every Python.
    k = math.fsum(c * g for c, g in zip(cumulative, shape)) / math.fsum(g * g for g in shape)
    sse = math.fsum((c - k * g) ** 2 for c, g in zip(cumulative, shape))
    return sse, k


def fit_arrival(counts: Sequence[float]) -> RayleighFit:
    """Least-squares Rayleigh fit to per-bucket counts (possibly fractional).

    Works on the cumulative counts evaluated at bucket right-edges
    (bucket i covers (i, i+1] in bucket units): cumulative data is
    monotone, which stabilizes the fit on short series.  For each
    candidate sigma the optimal K has a closed form, so only sigma is
    searched, by golden section over [0.1, 3 x last edge].  The true
    peak must lie strictly inside that interval; a search that
    converges onto either end is reported as non-convergence rather
    than returned as a pretend-optimum.
    """
    # An integer is checked as it is, since it may be past float range.
    counts = [c if isinstance(c, int) else float(c) for c in counts]
    if len(counts) < 3:
        raise ValidationError(f"fit needs at least 3 buckets, got {len(counts)}")
    if any(real_problem("count", c, zero=True) for c in counts):
        raise ValidationError("bucket counts must be finite and >= 0")
    # Past this cap, the one series files hold counts to, the squared
    # residuals can leave float range, where ** raises.
    if any(c > MAX_COUNT for c in counts):
        raise ValidationError(f"bucket counts must be <= {MAX_COUNT}")
    counts = list(map(float, counts))
    if not any(counts):
        raise ValidationError("fit needs at least one non-zero bucket")

    cumulative = list(itertools.accumulate(counts))
    edges = [float(i + 1) for i in range(len(counts))]
    lo, hi = SIGMA_FLOOR, SIGMA_SPAN_FACTOR * edges[-1]

    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, _ = _sse_at(x1, cumulative, edges)
    f2, _ = _sse_at(x2, cumulative, edges)
    while (b - a) > DEFAULT_REL_TOL * (abs(a) + abs(b)) / 2.0:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1, _ = _sse_at(x1, cumulative, edges)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2, _ = _sse_at(x2, cumulative, edges)
    sigma = (a + b) / 2.0

    if sigma - lo <= 2.0 * DEFAULT_REL_TOL * max(1.0, lo):
        raise NonConvergenceError(
            f"sigma search collapsed onto the lower boundary {lo}; the data "
            f"peak too early for an interior fit"
        )
    if hi - sigma <= 2.0 * DEFAULT_REL_TOL * hi:
        raise NonConvergenceError(
            f"sigma search collapsed onto the upper boundary {hi:g}; the data "
            f"show no interior peak within the observed span"
        )
    sse, k = _sse_at(sigma, cumulative, edges)
    return RayleighFit(k_total=k, sigma=sigma, sse=sse, buckets_used=len(counts))


def remaining_defects(fit: RayleighFit, t: float) -> float:
    """Defects not yet discovered at time t (bucket units)."""
    return fit.k_total - rayleigh_cdf(t, fit.k_total, fit.sigma)


def time_to_threshold(fit: RayleighFit, residual_threshold: float) -> float:
    """Time at which the undiscovered count falls to the threshold.

    Closed-form inversion: t = sigma * sqrt(2 * ln(K / threshold)).
    """
    if problem := real_problem("residual_threshold", residual_threshold):
        raise ValidationError(problem)
    if residual_threshold >= fit.k_total:
        raise ValidationError(
            f"residual_threshold {residual_threshold} must be below k_total {fit.k_total}"
        )
    return fit.sigma * math.sqrt(2.0 * math.log(fit.k_total / residual_threshold))
