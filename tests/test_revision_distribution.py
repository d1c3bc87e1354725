"""The Monte Carlo simulator against the exact revision-count distribution.

The simulated process is an absorbing Markov chain on the number of
defects left, and its transition matrix is lower-triangular, so the
distribution of the revision count can be computed exactly and used as
an oracle for the simulator's histograms.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
import pytest

from defectlab import ProcessParams, simulate_monte_carlo
from defectlab.revisions import SIGNOFF_THRESHOLD

#: Probability mass below which a tail of the build distribution, or
#: the mass not yet signed off, is dropped.
TAIL_MASS = 1e-15

#: False-alarm rate of the goodness-of-fit check, fixed before any run.
ALPHA = 1e-6

TRIALS = 10_000


def _binomial_pmf(n: np.ndarray, k: np.ndarray, p: float) -> np.ndarray:
    """Binomial(n, p) probability of k, elementwise, for 0 <= k <= n
    and 0 < p < 1."""
    log_factorial = np.array([math.lgamma(i + 1) for i in range(int(n.max()) + 1)])
    return np.exp(
        log_factorial[n] - log_factorial[k] - log_factorial[n - k]
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def exact_revision_pmf(
    units: int,
    injection_rate: float,
    removal_efficiency: float,
    threshold: float = SIGNOFF_THRESHOLD,
) -> list[float]:
    """P(revisions = k) at index k, ignoring the cycle cap.

    A review that finds nothing leaves the chain where it is and costs
    no revision, so the revision count is 1 plus the number of reviews
    that find something before fewer than ``threshold`` defects remain;
    every state below the threshold absorbs.  From n defects, each
    defect is found and its fix sticks with probability q = e * (1 - r),
    so n falls by Binomial(n, q) on net; a net fall of 0 includes the
    reviews that found nothing, which have probability (1 - e)^n.  Each
    step of the embedded chain is that fall conditioned on at least one
    find.
    """
    r, e = injection_rate, removal_efficiency
    build = _binomial_pmf(np.full(units + 1, units), np.arange(units + 1), r)
    tail = np.cumsum(build[::-1])[::-1]
    build = build[: int(np.flatnonzero(tail >= TAIL_MASS)[-1]) + 1]

    states = np.arange(build.size)
    nothing_found = (1 - e) ** states.astype(float)
    n, m = np.tril_indices(build.size)
    step = np.zeros((build.size, build.size))
    step[n, m] = _binomial_pmf(n, n - m, e * (1 - r))
    step[states, states] -= nothing_found
    step[1:] /= (1 - nothing_found[1:])[:, None]
    step[0] = 0.0

    signed_off = states < threshold
    pmf = [0.0, float(build[signed_off].sum())]
    alive = np.where(signed_off, 0.0, build)
    while alive.sum() >= TAIL_MASS:
        alive = alive @ step
        pmf.append(float(alive[signed_off].sum()))
        alive[signed_off] = 0.0
    return pmf


def _chi_square(histogram: dict[int, int], pmf: list[float], trials: int) -> tuple[float, int]:
    """Pearson's statistic and its degrees of freedom, with adjacent
    bins pooled until each expects at least 5 trials."""
    top = max(len(pmf), max(histogram) + 1)
    bins: list[list[float]] = []
    observed = expected = 0.0
    for k in range(top):
        observed += histogram.get(k, 0)
        expected += trials * (pmf[k] if k < len(pmf) else 0.0)
        if expected >= 5:
            bins.append([observed, expected])
            observed = expected = 0.0
    bins[-1][0] += observed
    bins[-1][1] += expected
    statistic = sum((o - x) ** 2 / x for o, x in bins)
    return statistic, len(bins) - 1


def _chi_square_critical(df: int, alpha: float) -> float:
    """Upper alpha quantile of chi-square(df), by Wilson-Hilferty."""
    z = NormalDist().inv_cdf(1 - alpha)
    spread = 2 / (9 * df)
    return df * (1 - spread + z * math.sqrt(spread)) ** 3


def test_oracle_matches_the_geometric_closed_form_for_one_unit():
    # One unit builds a defect with probability r; each review that finds
    # it re-injects one with probability r, so P(k) = r^(k-1) (1 - r) for
    # k >= 2, and P(1) = 1 - r.
    r = 0.3
    pmf = exact_revision_pmf(1, r, 0.5)
    assert pmf[1] == pytest.approx(1 - r, abs=1e-15)
    for k in range(2, 20):
        assert pmf[k] == pytest.approx(r ** (k - 1) * (1 - r), rel=1e-12)
    assert sum(pmf) == pytest.approx(1.0, abs=1e-12)


def test_oracle_signs_off_at_build_below_the_threshold():
    assert exact_revision_pmf(10, 0.5, 0.5, threshold=11) == pytest.approx([0.0, 1.0])


@pytest.mark.parametrize(
    ("units", "injection_rate", "removal_efficiency", "threshold", "seed"),
    [
        (2182, 0.07, 0.75, SIGNOFF_THRESHOLD, 1),
        (2182, 0.20, 0.30, SIGNOFF_THRESHOLD, 2),
        (2182, 0.20, 0.30, 20, 3),
        # Most reviews fix nothing cleanly, so most cycles take the
        # sampler's second draw: did the review find anything at all?
        (20, 0.90, 0.90, SIGNOFF_THRESHOLD, 4),
    ],
    ids=["paper-rates", "slow-review", "slow-review-threshold-20", "mostly-reinjected"],
)
def test_histogram_fits_the_exact_distribution(
    units, injection_rate, removal_efficiency, threshold, seed
):
    params = ProcessParams(
        units=units,
        injection_rate=injection_rate,
        removal_efficiency=removal_efficiency,
        threshold=threshold,
    )
    pmf = exact_revision_pmf(params.units, injection_rate, removal_efficiency, threshold)
    # Log-factorials near lgamma(2183) ~ 1.5e4 carry absolute rounding
    # of ~3e-12, and so the pmfs built from them carry that relative error.
    assert sum(pmf) == pytest.approx(1.0, abs=1e-9)
    outcome = simulate_monte_carlo(params, trials=TRIALS, seed=seed)
    assert outcome.censored == 0

    statistic, df = _chi_square(outcome.histogram, pmf, TRIALS)
    assert statistic < _chi_square_critical(df, ALPHA)

    mean = sum(k * p for k, p in enumerate(pmf))
    variance = sum(k * k * p for k, p in enumerate(pmf)) - mean**2
    assert abs(outcome.mean_revisions - mean) < 5 * math.sqrt(variance / TRIALS)
