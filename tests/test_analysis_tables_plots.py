"""Tests for text tables and ASCII charts."""

import pytest

from repro.analysis.plots import ascii_bar_chart
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
    def test_bar_chart_contains_labels_and_bars(self):
        chart = ascii_bar_chart({"go-ipfs 0.11.0": 100, "storm": 10})
        lines = chart.splitlines()
        assert lines[0].startswith("go-ipfs 0.11.0")
        assert "#" in lines[1]

    def test_bar_chart_empty(self):
        assert ascii_bar_chart({}) == "(empty)"
