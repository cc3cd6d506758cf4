"""The hydra-booster node: many heads on one machine.

A real hydra's heads share a record store (the "belly"); the passive
measurement never stores or serves records, so none is modelled.  For the
measurement it only matters that all heads are one operational node on one
machine — the paper notes that grouping by IP collapses ~1'026 hydra heads into
a handful of "peers", one of the weaknesses of the multiaddress-based
network-size estimate.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.hydra.head import HydraHead


class HydraNode:
    """A hydra-booster with ``n_heads`` heads."""

    def __init__(
        self,
        n_heads: int,
        rng: Optional[random.Random] = None,
        port: int = 3001,
        low_water: Optional[int] = None,
        high_water: Optional[int] = None,
    ) -> None:
        if n_heads <= 0:
            raise ValueError("a hydra needs at least one head")
        self.rng = rng or random.Random()
        head_kwargs = {}
        if low_water is not None:
            head_kwargs["low_water"] = low_water
        if high_water is not None:
            head_kwargs["high_water"] = high_water
        self.heads: List[HydraHead] = [
            HydraHead(head_index=i, rng=self.rng, port=port, **head_kwargs)
            for i in range(n_heads)
        ]

    def __len__(self) -> int:
        return len(self.heads)

    def head(self, index: int) -> HydraHead:
        return self.heads[index]

    def tick(self, now: float) -> int:
        """Run every head's trim cycle; returns the number of trimmed connections."""
        trimmed = 0
        for head in self.heads:
            trimmed += len(head.tick(now))
        return trimmed
