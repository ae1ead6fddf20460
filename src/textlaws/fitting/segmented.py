"""Per-interval straight-line fits for rank-frequency and coverage data.

The rank axis splits into domains (by default three); inside each, the
power-law exponent comes from ordinary least squares on (ln r, ln F) and
the coverage slope from least squares of T on ln r.  Interval bounds are
half-open on the left, lo < r <= hi, so shared breakpoints never count a
rank twice; an unset upper bound runs to the last rank.  An interval with
fewer than 3 points reports an error of its own, and the others are still
fitted.  The two fits take the ``[fits]`` model names below; ``lm_fit``'s
registry has neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError

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


@dataclass(frozen=True)
class ShortSegment:
    """An interval with fewer than 3 points, which no line is fitted to."""

    lo: int
    hi: int
    n_points: int
    error: str


def ols_line(xs, ys) -> tuple[float, float, float]:
    """Slope, intercept and r-squared of an ordinary least-squares line."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    n = len(xs)
    mean_x = float(np.sum(xs)) / n
    mean_y = float(np.sum(ys)) / n
    dx, dy = xs - mean_x, ys - mean_y
    sxx = float(np.sum(dx * dx))
    if sxx == 0:
        raise ValidationError("degenerate abscissae: all x values equal")
    slope = float(np.sum(dx * dy)) / sxx
    intercept = mean_y - slope * mean_x
    res = ys - slope * xs - intercept
    ss_res = float(np.sum(res * res))
    ss_tot = float(np.sum(dy * dy))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r_squared


def _interval_lines(values, breakpoints, transform, segment):
    """``segment(lo, top, slope, intercept, r_squared, n_points)`` of each rank interval.

    The line is the OLS line of ``transform(v)`` on ln r, where
    ``values[i]`` belongs to rank i + 1 and ``top`` is the resolved upper
    bound.  An interval with fewer than 3 points is a ``ShortSegment``; when
    every interval is, the first one's error is raised.
    """
    values = np.asarray(values)
    n = len(values)
    segments = []
    for lo, hi in breakpoints:
        top = n if hi is None else hi
        # ranks lo + 1..top sit at indices lo..top - 1
        start, stop = min(max(lo, 0), n), min(max(top, 0), n)
        if stop - start < 3:
            error = f"rank interval ({lo}, {top}] holds {stop - start} points; need >= 3"
            segments.append(ShortSegment(lo, top, stop - start, error))
            continue
        # math.log per point: numpy's log rounds differently per SIMD level
        log_r = np.fromiter(map(math.log, range(start + 1, stop + 1)), float, stop - start)
        ys = np.fromiter(map(transform, values[start:stop].tolist()), float, stop - start)
        segments.append(segment(lo, top, *ols_line(log_r, ys), stop - start))
    if all(isinstance(s, ShortSegment) for s in segments):
        raise ValidationError(segments[0].error)
    return segments


def _power_law(lo, top, slope, intercept, r2, n) -> PowerLawSegment:
    return PowerLawSegment(lo, top, -slope, math.exp(intercept), r2, n)


def segmented_loglog_fit(
    counts, breakpoints=DEFAULT_ZIPF_BREAKPOINTS
) -> list[PowerLawSegment | ShortSegment]:
    """Power-law exponent per rank domain; ``counts[i]`` is the frequency at rank i + 1."""
    return _interval_lines(counts, breakpoints, math.log, _power_law)


def fit_coverage(
    coverage, breakpoints=DEFAULT_COVERAGE_BREAKPOINTS
) -> list[CoverageSegment | ShortSegment]:
    """Logarithmic growth slope of text coverage per rank domain.

    ``coverage[i]`` is the covered fraction at rank i + 1, as
    ``coverage_curve`` gives it.
    """
    return _interval_lines(coverage, breakpoints, float, CoverageSegment)
