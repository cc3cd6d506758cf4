"""Tests for the median helper."""

import pytest

from repro.analysis.stats import median


class TestMedianAndPercentile:
    def test_median_odd_and_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_median_of_single_value(self):
        assert median([7.0]) == 7.0

    def test_median_of_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])
