import math
import random

import pytest

from textlaws import ValidationError
from textlaws.fitting import (
    CoverageSegment,
    PowerLawSegment,
    ShortSegment,
    fit_coverage,
    ols_line,
    segmented_loglog_fit,
)


def column(law, first, last):
    """``law(r)`` at ranks first..last, padded with NaN at the ranks below.

    The value at index i belongs to rank i + 1; the padding lies at or below
    every interval's lower bound, where no fit reads.
    """
    return [math.nan] * (first - 1) + [law(r) for r in range(first, last + 1)]


def continuous_piecewise(slopes, uppers, amp0):
    """Frequencies at ranks 1, 2, ... following one power law per block, continuous at the joins."""
    counts = []
    amp = amp0
    prev = 1
    for z, hi in zip(slopes, uppers):
        if counts:
            amp = counts[-1] * prev ** z
        for r in range(prev, hi + 1):
            counts.append(amp * r ** (-z))
        prev = hi + 1
    return counts


def python_ols(xs, ys):
    """The line by sums in Python, one point at a time."""
    n = len(xs)
    mean_x, mean_y = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    return slope, intercept, 1.0 - ss_res / ss_tot


class TestOlsLine:
    @pytest.mark.parametrize("n", [3, 10, 1000, 20000])
    def test_matches_python_sums(self, n):
        # numpy sums pairwise, Python in order: n * eps bounds the difference
        rng = random.Random(n)
        xs = [math.log(r) for r in range(1, n + 1)]
        ys = [8.0 - 1.1 * x + rng.gauss(0.0, 0.3) for x in xs]
        assert ols_line(xs, ys) == pytest.approx(python_ols(xs, ys), rel=1e-10)


    def test_exact_line(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2.0 * x + 0.5 for x in xs]
        slope, intercept, r2 = ols_line(xs, ys)
        assert slope == pytest.approx(2.0, rel=1e-12)
        assert intercept == pytest.approx(0.5, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_abscissae(self):
        with pytest.raises(ValidationError):
            ols_line([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestSegmentedZipf:
    def test_exact_power_law_unit_slope(self):
        counts = column(lambda r: 1000.0 / r, 10, 200)
        segments = segmented_loglog_fit(counts, breakpoints=((9, 200),))
        seg = segments[0]
        assert seg.z == pytest.approx(1.0, abs=1e-9)
        assert seg.A == pytest.approx(1000.0, rel=1e-9)
        assert seg.r_squared == pytest.approx(1.0, abs=1e-9)
        assert seg.n_points == 191

    @pytest.mark.parametrize("slopes", [(0.999, 1.05, 1.20), (0.9, 1.1, 1.3)])
    def test_three_regime_constructed_slopes(self, slopes):
        counts = continuous_piecewise(slopes, (200, 1000, 2000), 100000.0)
        segments = segmented_loglog_fit(
            counts, breakpoints=((10, 200), (200, 1000), (1000, None))
        )
        for seg, z in zip(segments, slopes):
            assert abs(seg.z - z) <= 1e-3

    def test_open_upper_bound_runs_to_last_rank(self):
        counts = column(lambda r: 500.0 / r, 1, 50)
        segments = segmented_loglog_fit(counts, breakpoints=((10, None),))
        assert segments[0].hi == 50

    def test_interval_with_too_few_points(self):
        counts = column(lambda r: 10.0 / r, 1, 5)
        with pytest.raises(ValidationError, match="need >= 3"):
            segmented_loglog_fit(counts, breakpoints=((3, 5),))

    def test_spectrum_shorter_than_the_last_interval_keeps_the_earlier_ones(self):
        # the default last interval (1000, end] of a 900-rank spectrum is empty
        counts = column(lambda r: 1000.0 / r ** 1.1, 1, 900)
        segments = segmented_loglog_fit(counts)
        assert [type(s) for s in segments] == [PowerLawSegment, PowerLawSegment, ShortSegment]
        assert [s.z for s in segments[:2]] == pytest.approx([1.1, 1.1], rel=1e-9)
        assert segments[2] == ShortSegment(
            1000, 900, 0, "rank interval (1000, 900] holds 0 points; need >= 3"
        )

    def test_every_interval_short_raises_the_first_ones_error(self):
        counts = column(lambda r: 10.0 / r, 1, 5)
        with pytest.raises(ValidationError) as err:
            segmented_loglog_fit(counts, breakpoints=((3, 5), (4, None)))
        assert str(err.value) == "rank interval (3, 5] holds 2 points; need >= 3"

    def test_scale_equivariance_of_exponent(self):
        # a constant factor only shifts ln A; the slope moves by ulps at most
        counts = column(lambda r: 1234.0 * r ** -1.07, 5, 119)
        scaled = [1000.0 * f for f in counts]
        raw = segmented_loglog_fit(counts, breakpoints=((4, None),))[0]
        big = segmented_loglog_fit(scaled, breakpoints=((4, None),))[0]
        assert big.z == pytest.approx(raw.z, rel=1e-13)
        assert big.A == pytest.approx(1000.0 * raw.A, rel=1e-10)


class TestCoverageFit:
    def test_exact_logarithmic_curve(self):
        coverage = column(lambda r: 0.1 * math.log(r) + 0.2, 10, 199)
        segments = fit_coverage(coverage, breakpoints=((9, None),))
        assert segments[0].k == pytest.approx(0.1, rel=1e-12)
        assert segments[0].T0 == pytest.approx(0.2, rel=1e-12)

    def test_two_regime_concatenated_curve(self):
        first = column(lambda r: 0.13 * math.log(r) + 0.1, 10, 200)
        join = first[-1]
        second = [join + 0.08 * (math.log(r) - math.log(200)) for r in range(201, 1001)]
        segments = fit_coverage(first + second, breakpoints=((10, 200), (200, 1000)))
        assert abs(segments[0].k - 0.13) <= 1e-6
        assert abs(segments[1].k - 0.08) <= 1e-6

    def test_too_few_points(self):
        coverage = column(lambda r: 0.1 * math.log(r), 1, 3)
        with pytest.raises(ValidationError):
            fit_coverage(coverage, breakpoints=((1, 2),))

    def test_short_middle_interval_keeps_its_neighbours(self):
        coverage = column(lambda r: 0.1 * math.log(r) + 0.2, 1, 1650)
        segments = fit_coverage(coverage, breakpoints=((10, 200), (200, 202), (2000, None)))
        assert [type(s) for s in segments] == [CoverageSegment, ShortSegment, ShortSegment]
        assert segments[0].k == pytest.approx(0.1, rel=1e-12)
        assert [(s.lo, s.hi, s.n_points) for s in segments[1:]] == [(200, 202, 2), (2000, 1650, 0)]
