"""Repeated crawls and their aggregation.

The public crawler the paper compares against runs every 8 hours and publishes
the number of nodes found per crawl; the paper therefore shows the crawler's
result as a min–max range per measurement period (Fig. 2).  :class:`CrawlMonitor`
stores the individual snapshots and produces that range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.crawler.crawler import CrawlSnapshot
from repro.libp2p.peer_id import PeerId

#: crawl cadence of the Weizenbaum-Institut crawler
DEFAULT_CRAWL_INTERVAL = 8 * 3600.0


@dataclass(frozen=True)
class CrawlRange:
    """Min/max node counts over a series of crawls (one bar of Fig. 2)."""

    crawls: int
    min_reachable: int
    max_reachable: int
    min_discovered: int
    max_discovered: int
    union_discovered: int


@dataclass
class CrawlMonitor:
    """Collects snapshots from periodic crawls."""

    snapshots: List[CrawlSnapshot] = field(default_factory=list)

    def add(self, snapshot: CrawlSnapshot) -> None:
        self.snapshots.append(snapshot)

    def __len__(self) -> int:
        return len(self.snapshots)

    def union_discovered(self) -> Set[PeerId]:
        union: Set[PeerId] = set()
        for snapshot in self.snapshots:
            union.update(snapshot.discovered)
        return union

    def range(self, since: Optional[float] = None, until: Optional[float] = None) -> CrawlRange:
        """Aggregate the snapshots that started within [since, until]."""
        selected = [
            s
            for s in self.snapshots
            if (since is None or s.started_at >= since)
            and (until is None or s.started_at <= until)
        ]
        if not selected:
            return CrawlRange(0, 0, 0, 0, 0, 0)
        union: Set[PeerId] = set()
        for snapshot in selected:
            union.update(snapshot.discovered)
        return CrawlRange(
            crawls=len(selected),
            min_reachable=min(s.reachable_count for s in selected),
            max_reachable=max(s.reachable_count for s in selected),
            min_discovered=min(s.discovered_count for s in selected),
            max_discovered=max(s.discovered_count for s in selected),
            union_discovered=len(union),
        )
