"""Tests for text tables and ASCII charts."""

import pytest

from repro.analysis.plots import ascii_bar_chart, ascii_series, downsample, sparkline
from repro.analysis.tables import TextTable, format_count, format_seconds


class TestFormatting:
    def test_format_seconds_uses_paper_style(self):
        assert format_seconds(3017.252) == "3'017.252 s"
        assert format_seconds(73.732) == "73.732 s"

    def test_format_count(self):
        assert format_count(1285513) == "1'285'513"
        assert format_count(42.0) == "42"


class TestTextTable:
    def test_render_alignment(self):
        table = TextTable(headers=["Period", "Sum"], title="Table II")
        table.add_row("P0", 123)
        table.add_row("P2", 456789)
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0] == "Table II"
        assert "Period" in lines[1]
        assert all("|" in line for line in lines[3:])

    def test_row_arity_checked(self):
        table = TextTable(headers=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")


class TestPlots:
    def test_sparkline_length_and_extremes(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] == " "
        assert line[-1] == "█"

    def test_sparkline_constant_series(self):
        assert sparkline([5.0, 5.0]) == "▄▄"
        assert sparkline([]) == ""

    def test_bar_chart_contains_labels_and_bars(self):
        chart = ascii_bar_chart({"go-ipfs 0.11.0": 100, "storm": 10})
        lines = chart.splitlines()
        assert lines[0].startswith("go-ipfs 0.11.0")
        assert "#" in lines[1]

    def test_bar_chart_empty(self):
        assert ascii_bar_chart({}) == "(empty)"

    def test_series_renders_one_line_per_series(self):
        output = ascii_series({"a": [(0, 1.0), (1, 2.0)], "b": [(0, 5.0)]})
        assert len(output.splitlines()) == 2

    def test_downsample_keeps_ends(self):
        points = [(float(i), float(i)) for i in range(100)]
        sampled = downsample(points, 10)
        assert len(sampled) == 10
        assert sampled[0] == (0.0, 0.0)
        assert sampled[-1] == (99.0, 99.0)

    def test_downsample_short_series_untouched(self):
        points = [(0.0, 1.0)]
        assert downsample(points, 10) == points

    def test_downsample_requires_positive_samples(self):
        with pytest.raises(ValueError):
            downsample([(0.0, 1.0)], 0)
