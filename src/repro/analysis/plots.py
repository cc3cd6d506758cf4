"""ASCII bar charts for the examples.

The reproduction has no plotting dependency; a histogram (Fig. 3's agents,
Fig. 4's protocols) is rendered as a coarse text chart so a reader can eyeball
its shape.
"""

from __future__ import annotations

from typing import List, Mapping, Tuple


def ascii_bar_chart(
    data: Mapping[str, float],
    width: int = 50,
    sort_desc: bool = True,
    max_rows: int = 40,
) -> str:
    """Render a horizontal bar chart of label → value.

    Used for Fig. 3 (agent occurrences) and Fig. 4 (protocol occurrences).
    """
    items: List[Tuple[str, float]] = list(data.items())
    if sort_desc:
        items.sort(key=lambda kv: kv[1], reverse=True)
    items = items[:max_rows]
    if not items:
        return "(empty)"
    label_width = max(len(k) for k, _ in items)
    peak = max(v for _, v in items) or 1.0
    lines = []
    for label, value in items:
        bar = "#" * max(1, int(round(value / peak * width))) if value > 0 else ""
        lines.append(f"{label.ljust(label_width)} | {bar} {value:g}")
    return "\n".join(lines)
