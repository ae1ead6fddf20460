"""Per-interval straight-line fits for rank-frequency and coverage data.

The rank axis splits into domains (by default three); inside each, the
power-law exponent comes from ordinary least squares on (ln r, ln F) and
the coverage slope from least squares of T on ln r.  Interval bounds are
half-open on the left, lo < r <= hi, so shared breakpoints never count a
rank twice; an unset upper bound runs to the last rank.  The two fits
take the ``[fits]`` model names below; ``lm_fit``'s registry has neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ValidationError
from ..distributions import RankFrequencyList

ZIPF_POWER = "ZipfPower"          # segmented_loglog_fit
LOG_COVERAGE = "LogCoverage"      # fit_coverage
INTERVAL_FITS = (ZIPF_POWER, LOG_COVERAGE)

DEFAULT_ZIPF_BREAKPOINTS = ((10, 200), (200, 1000), (1000, None))
DEFAULT_COVERAGE_BREAKPOINTS = ((10, 200), (200, 2000), (2000, None))


@dataclass(frozen=True)
class PowerLawSegment:
    lo: int
    hi: int
    z: float          # exponent, sign convention F ~ r**(-z)
    A: float          # amplitude
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class CoverageSegment:
    lo: int
    hi: int
    k: float
    T0: float
    r_squared: float
    n_points: int


def ols_line(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Slope, intercept and r-squared of an ordinary least-squares line."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValidationError("degenerate abscissae: all x values equal")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r_squared


def _interval_lines(points, breakpoints, transform):
    """OLS line of ``transform(v)`` on ln r inside each rank interval.

    Yields ``(lo, top, slope, intercept, r_squared, n_points)``, where ``top``
    is the resolved upper bound.
    """
    last = points[-1][0] if points else 0
    for lo, hi in breakpoints:
        top = last if hi is None else hi
        inside = [(r, v) for r, v in points if lo < r <= top]
        if len(inside) < 3:
            raise ValidationError(
                f"rank interval ({lo}, {top}] holds {len(inside)} points; need >= 3"
            )
        log_r = [math.log(r) for r, _ in inside]
        slope, intercept, r2 = ols_line(log_r, [transform(v) for _, v in inside])
        yield lo, top, slope, intercept, r2, len(inside)


def segmented_loglog_fit(
    rf: RankFrequencyList,
    breakpoints=DEFAULT_ZIPF_BREAKPOINTS,
) -> list[PowerLawSegment]:
    """Power-law exponent per rank domain from log-log linear regression."""
    pairs = [(rank, count) for rank, _, count in rf.rows]
    return [
        PowerLawSegment(lo, top, -slope, math.exp(intercept), r2, n)
        for lo, top, slope, intercept, r2, n in _interval_lines(pairs, breakpoints, math.log)
    ]


def fit_coverage(curve, breakpoints=DEFAULT_COVERAGE_BREAKPOINTS) -> list[CoverageSegment]:
    """Logarithmic growth slope of text coverage per rank domain.

    ``curve`` holds (rank, covered fraction) points, as ``coverage_curve`` gives.
    """
    return [CoverageSegment(*line) for line in _interval_lines(curve, breakpoints, lambda v: v)]
