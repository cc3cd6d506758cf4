"""Empirical cumulative distribution functions.

Fig. 7 of the paper plots two CDFs: the maximum connection duration per PID
(grouped into 30 s intervals) and the number of connections per PID, each split
into "all", "DHT-Server", and "DHT-Client" series.  :class:`EmpiricalCDF`
provides the operations the fidelity checks (``repro.experiments.fidelity``)
read those series through, e.g. the anchor fractions the paper reports
("around 53 % are connected less than 1 h").
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


@dataclass
class EmpiricalCDF:
    """Empirical CDF over a numeric sample.

    The CDF is right-continuous: ``fraction_at(x)`` returns
    ``P(X <= x)`` under the empirical distribution.
    """

    values: List[float]

    def __init__(self, values: Iterable[float]):
        self.values = sorted(float(v) for v in values)

    def __len__(self) -> int:
        return len(self.values)

    def fraction_at(self, x: float) -> float:
        """Return the empirical ``P(X <= x)``."""
        if not self.values:
            return 0.0
        idx = bisect.bisect_right(self.values, x)
        return idx / len(self.values)

    def fraction_above(self, x: float) -> float:
        """Return the empirical ``P(X > x)``."""
        return 1.0 - self.fraction_at(x)

    def quantile(self, q: float) -> float:
        """Return the smallest value ``v`` with ``P(X <= v) >= q``."""
        if not self.values:
            raise ValueError("quantile of an empty CDF")
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if q == 0.0:
            return self.values[0]
        idx = max(0, min(len(self.values) - 1, int(q * len(self.values) + 0.5) - 1))
        return self.values[idx]

    def sampled(self, xs: Sequence[float]) -> List[Tuple[float, float]]:
        """Evaluate the CDF at each x in ``xs`` (for plotting on a fixed grid)."""
        return [(x, self.fraction_at(x)) for x in xs]
