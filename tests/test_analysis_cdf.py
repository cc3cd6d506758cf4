"""Tests for the empirical CDF helpers."""

import pytest

from repro.analysis.cdf import EmpiricalCDF


class TestEmpiricalCDF:
    def test_fractions(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        assert cdf.fraction_at(0.5) == 0.0
        assert cdf.fraction_at(2.0) == 0.5
        assert cdf.fraction_at(10.0) == 1.0
        assert cdf.fraction_above(2.0) == 0.5

    def test_empty_cdf(self):
        cdf = EmpiricalCDF([])
        assert cdf.fraction_at(5.0) == 0.0
        with pytest.raises(ValueError):
            cdf.quantile(0.5)

    def test_quantile(self):
        cdf = EmpiricalCDF(range(1, 101))
        assert cdf.quantile(0.5) == 50
        assert cdf.quantile(1.0) == 100
        assert cdf.quantile(0.0) == 1

    def test_quantile_bounds(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([1.0]).quantile(1.5)

    def test_points_are_monotone_steps(self):
        cdf = EmpiricalCDF([1.0, 1.0, 2.0, 5.0])
        points = cdf.sampled(sorted(set(cdf.values)))
        assert points == [(1.0, 0.5), (2.0, 0.75), (5.0, 1.0)]

    def test_sampled_on_grid(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0])
        sampled = cdf.sampled([0.0, 1.5, 3.0])
        assert sampled == [(0.0, 0.0), (1.5, pytest.approx(1 / 3)), (3.0, 1.0)]

    def test_len(self):
        assert len(EmpiricalCDF([1, 2, 3])) == 3
