"""The median, as the paper's Table II reports it.

The paper reports per-period connection statistics as *sum of observations*,
*average*, and *median* (Table II); sums and averages are one-liners at the
call site, the median is the one helper shared.
"""

from __future__ import annotations

from typing import Sequence


def median(values: Sequence[float]) -> float:
    """Return the median of ``values``.

    Raises ``ValueError`` for an empty sequence, mirroring ``statistics.median``.
    """
    if not values:
        raise ValueError("median of an empty sequence")
    return sorted_median(sorted(values))


def sorted_median(ordered: Sequence[float]) -> float:
    """The median of ``ordered``, a non-empty sequence in ascending order."""
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0
