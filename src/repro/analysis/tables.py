"""Plain-text table rendering for the sweep CLI and the examples.

:class:`TextTable` keeps the sweep table and the examples' output aligned
and easy to diff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence


def format_seconds(value: float) -> str:
    """Format a duration in seconds the way the paper prints them (3 decimals)."""
    return f"{value:,.3f} s".replace(",", "'")


def format_count(value: float) -> str:
    """Format a count with thousands separators in the paper's style (1'285'513)."""
    return f"{int(round(value)):,}".replace(",", "'")


@dataclass
class TextTable:
    """A minimal monospaced table builder."""

    headers: Sequence[str]
    rows: List[List[str]] = field(default_factory=list)
    title: Optional[str] = None

    def add_row(self, *cells: object) -> None:
        row = [str(c) for c in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(self.headers)}"
            )
        self.rows.append(row)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt(cells: Sequence[str]) -> str:
            return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        lines.append(fmt(list(self.headers)))
        lines.append("-+-".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(fmt(row))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
