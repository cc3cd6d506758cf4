"""Measurement-horizon comparison (Section III.C, Fig. 2).

Fig. 2 compares, per measurement period, the number of PIDs observed by the
passive vantage points (total, and the subset identified as DHT-Servers) with
the min/max node counts reported by the active crawler.  The key qualitative
findings the figure supports:

* a passive node also sees DHT-Clients, which a crawler structurally cannot;
* over multi-day periods, the passive node's *historic* peerstore accumulates
  more DHT-Servers than any single crawl snapshot contains;
* a hydra with more heads sees more of the network than a single-identity
  go-ipfs node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.records import MeasurementDataset
from repro.crawler.monitor import CrawlRange


@dataclass(frozen=True)
class HorizonEntry:
    """One bar of Fig. 2: a vantage point's observed PID counts."""

    label: str
    total_pids: int
    dht_server_pids: int
    dht_client_pids: int
    role_unknown_pids: int


@dataclass
class HorizonComparison:
    """Passive horizons side by side with the crawler's min/max range."""

    entries: List[HorizonEntry] = field(default_factory=list)
    crawler: Optional[CrawlRange] = None

    def entry(self, label: str) -> HorizonEntry:
        for entry in self.entries:
            if entry.label == label:
                return entry
        raise KeyError(label)

    def passive_sees_clients(self) -> bool:
        """True when at least one passive vantage point observed DHT-Clients."""
        return any(e.dht_client_pids > 0 for e in self.entries)

    def passive_servers_exceed_crawler_min(self, label: str) -> Optional[bool]:
        """Does the passive node's historic DHT-Server count beat a single crawl?"""
        if self.crawler is None or self.crawler.crawls == 0:
            return None
        return self.entry(label).dht_server_pids > self.crawler.min_discovered


def horizon_entry(dataset: MeasurementDataset) -> HorizonEntry:
    """Summarise one dataset into a Fig. 2 bar."""
    total = dataset.pid_count()
    servers = len(dataset.dht_server_pids())
    clients = len(dataset.dht_client_pids())
    return HorizonEntry(
        label=dataset.label,
        total_pids=total,
        dht_server_pids=servers,
        dht_client_pids=clients,
        role_unknown_pids=max(0, total - servers - clients),
    )


def compare_horizons(
    datasets: Dict[str, MeasurementDataset],
    crawler_range: Optional[CrawlRange] = None,
    labels: Optional[List[str]] = None,
) -> HorizonComparison:
    """Build the Fig. 2 comparison for the given datasets.

    ``labels`` selects and orders the vantage points; by default every dataset
    is included in sorted label order.
    """
    selected = labels if labels is not None else sorted(datasets)
    comparison = HorizonComparison(crawler=crawler_range)
    for label in selected:
        comparison.entries.append(horizon_entry(datasets[label]))
    return comparison
