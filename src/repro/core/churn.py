"""Connection churn statistics (Table II, Section IV.A).

The paper reports, per measurement client and period, connection-duration
statistics in two flavours:

* **All** — every recorded connection contributes one duration value; the
  "Sum" column is the number of connections.
* **Peer** — each peer contributes the *average* duration of its connections,
  so every peer counts exactly once; "Sum" is the number of peers.

It additionally discusses the inbound/outbound split: inbound connections are
far more numerous and last longer, which is the evidence for connection
trimming (rather than node churn) being the dominant close reason.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.stats import median, sorted_median
from repro.core.records import MeasurementDataset


@dataclass(frozen=True)
class ConnectionStats:
    """One row of Table II."""

    kind: str                 # "all" | "peer"
    count: int                # number of connections (all) or peers (peer)
    average: float            # seconds
    median_value: float       # seconds

    def as_row(self) -> tuple:
        return (self.kind, self.count, self.average, self.median_value)


@dataclass(frozen=True)
class DirectionStats:
    """Statistics of one connection direction."""

    direction: str
    count: int
    average: float
    median_value: float
    total_duration: float


@dataclass(frozen=True)
class PeriodChurnReport:
    """Full churn analysis of one dataset (one client, one period)."""

    label: str
    all_stats: ConnectionStats
    peer_stats: ConnectionStats
    inbound: DirectionStats
    outbound: DirectionStats
    close_reasons: Dict[str, int]

    def rows(self) -> List[tuple]:
        return [self.all_stats.as_row(), self.peer_stats.as_row()]


def _direction_stats(durations: List[float], direction: str) -> DirectionStats:
    if not durations:
        return DirectionStats(direction, 0, 0.0, 0.0, 0.0)
    return DirectionStats(
        direction=direction,
        count=len(durations),
        average=sum(durations) / len(durations),
        median_value=median(durations),
        total_duration=sum(durations),
    )


def _stats(kind: str, values: List[float]) -> ConnectionStats:
    """The Table II row over ``values``, summed in their order; then
    ``values`` is sorted in place for the median (no copy of it)."""
    if not values:
        return ConnectionStats(kind=kind, count=0, average=0.0, median_value=0.0)
    average = sum(values) / len(values)
    values.sort()
    return ConnectionStats(kind, len(values), average, sorted_median(values))


def churn_summary(dataset: MeasurementDataset) -> Tuple[ConnectionStats, float]:
    """:func:`connection_statistics`' "All" row and :func:`trim_share`
    without its per-peer, per-direction and close-reason tables."""
    log = dataset.connections
    trimmed = log.closes("local-trim") + log.closes("remote-trim")
    return _stats("all", log.durations()), trimmed / len(log) if log else 0.0


def connection_statistics(dataset: MeasurementDataset) -> PeriodChurnReport:
    """Compute the Table II statistics for one dataset.

    Only peers with recorded connection information contribute (peers known
    solely from the peerstore are ignored), matching the paper's methodology.
    Connections still open at the end of the measurement were already closed at
    ``dataset.ended_at`` by the recorder, so they are included.

    Reads the log's columns: each duration is computed once
    (:meth:`~repro.core.records.ConnectionLog.durations`) and lands in the
    "All" list, its direction bucket and its peer's list; the close-reason
    histogram counts the code column.  Every list keeps record order and peers
    keep first-appearance order, so each float reduction adds the same values
    left to right as a pass per record would; the "All" list is sorted in
    place for its median only after every other reduction has read it.
    """
    log = dataset.connections
    durations = log.durations()
    inbound = log.codes.get("inbound", -1)
    outbound = log.codes.get("outbound", -1)
    inbound_durations = [d for d, code in zip(durations, log.direction) if code == inbound]
    outbound_durations = [d for d, code in zip(durations, log.direction) if code == outbound]
    per_peer = log.by_peer(durations)
    close_reasons: Dict[str, int] = {}
    for code, closes in Counter(log.close_reason).items():
        reason = log.names[code] or "unknown"
        close_reasons[reason] = close_reasons.get(reason, 0) + closes
    peer_averages = [sum(values) / len(values) for values in per_peer.values()]
    return PeriodChurnReport(
        label=dataset.label,
        all_stats=_stats("all", durations),
        peer_stats=_stats("peer", peer_averages),
        inbound=_direction_stats(inbound_durations, "inbound"),
        outbound=_direction_stats(outbound_durations, "outbound"),
        close_reasons=close_reasons,
    )


def trim_share(report: PeriodChurnReport) -> float:
    """Fraction of closes attributable to trimming (local or remote).

    The paper argues that "more connections are closed due to connection
    trimming than due to nodes leaving the network"; this helper quantifies
    that claim for a report.
    """
    total = sum(report.close_reasons.values())
    if total == 0:
        return 0.0
    trimmed = report.close_reasons.get("local-trim", 0) + report.close_reasons.get("remote-trim", 0)
    return trimmed / total
