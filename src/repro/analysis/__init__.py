"""Statistics, CDF, and presentation helpers shared by the analysis modules.

The helpers in this package are intentionally free of any simulator or
measurement dependency: they operate on plain Python numbers and sequences so
that the analysis code in :mod:`repro.core` stays testable in isolation and
could be reused on data exported from a real go-ipfs measurement node.
"""

from repro.analysis.cdf import EmpiricalCDF
from repro.analysis.stats import median
from repro.analysis.tables import TextTable, format_count, format_seconds
from repro.analysis.plots import ascii_bar_chart
from repro.analysis.sweep_report import (
    aggregate_payload,
    aggregate_table,
    render_aggregate,
)

__all__ = [
    "EmpiricalCDF",
    "median",
    "TextTable",
    "format_count",
    "format_seconds",
    "ascii_bar_chart",
    "aggregate_payload",
    "aggregate_table",
    "render_aggregate",
]
