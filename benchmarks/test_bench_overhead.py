"""Unit test of the overhead gate's estimator (collected by the tier-1 command;
imports ``bench_overhead`` but runs no simulation)."""

import pytest

from bench_overhead import iqr_mean


def test_iqr_mean_averages_the_middle_half():
    # 12 pairs: the three lowest and three highest are trimmed, so neither a
    # burst inside one run (3.0) nor a lucky pair (0.5) moves the estimate.
    ratios = [1.08, 3.0, 1.10, 0.5, 1.12, 1.09, 2.0, 1.11, 0.9, 1.07, 1.13, 1.5]
    assert iqr_mean(ratios) == pytest.approx((1.08 + 1.09 + 1.10 + 1.11 + 1.12 + 1.13) / 6)
    assert iqr_mean([4.0, 1.0, 2.0, 3.0]) == pytest.approx(2.5)
    # order does not matter
    assert iqr_mean(sorted(ratios)) == pytest.approx(iqr_mean(ratios))


def test_iqr_mean_of_fewer_than_four_pairs_is_the_median():
    assert iqr_mean([1.3]) == 1.3
    assert iqr_mean([1.0, 1.2]) == pytest.approx(1.1)
    assert iqr_mean([1.0, 9.0, 1.1]) == 1.1
