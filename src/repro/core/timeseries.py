"""Time-series views of a measurement (Fig. 5 and Fig. 6).

Fig. 5 plots the number of simultaneous peer connections over the first 24 h
of each period — the sawtooth of the node's own connection trimming in the
low-watermark periods, the ~15k–16k plateau in P2, and the tiny counts of the
DHT-Client vantage point in P3.

Fig. 6 plots, over a ~14 day measurement, the total number of PIDs ever seen
and the number of PIDs that have been disconnected for more than three days
and never returned — the gap between the two is the paper's argument that PIDs
overcount peers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.records import MeasurementDataset

DAY = 86_400.0

Series = List[Tuple[float, float]]


def connections_over_time(
    dataset: MeasurementDataset,
    limit: Optional[float] = DAY,
    relative_time: bool = True,
) -> Series:
    """Simultaneous connections per snapshot, optionally limited to the first day.

    Fig. 5 shows "only the connections of the first 24 h" for comparability;
    pass ``limit=None`` for the full period.
    """
    series: Series = []
    for snapshot in dataset.snapshots:
        t = snapshot.timestamp - dataset.started_at
        if limit is not None and t > limit:
            break
        x = t if relative_time else snapshot.timestamp
        series.append((x, float(snapshot.simultaneous_connections)))
    return series


def connected_peers_over_time(
    dataset: MeasurementDataset,
    limit: Optional[float] = DAY,
    relative_time: bool = True,
) -> Series:
    """Simultaneously connected PIDs per snapshot (Fig. 5's y axis says "Peers")."""
    series: Series = []
    for snapshot in dataset.snapshots:
        t = snapshot.timestamp - dataset.started_at
        if limit is not None and t > limit:
            break
        x = t if relative_time else snapshot.timestamp
        series.append((x, float(snapshot.connected_pids)))
    return series


def pids_over_time(dataset: MeasurementDataset, step: float = 3_600.0) -> Series:
    """Cumulative number of distinct PIDs seen up to each time step (Fig. 6 'all')."""
    if step <= 0:
        raise ValueError("step must be positive")
    first_seen = sorted(record.first_seen for record in dataset.peers.values())
    series: Series = []
    t = dataset.started_at
    idx = 0
    while t <= dataset.ended_at + 1e-9:
        while idx < len(first_seen) and first_seen[idx] <= t:
            idx += 1
        series.append((t - dataset.started_at, float(idx)))
        t += step
    return series


def gone_pids_over_time(
    dataset: MeasurementDataset,
    gone_threshold: float = 3 * DAY,
    step: float = 3_600.0,
) -> Series:
    """PIDs disconnected for more than ``gone_threshold`` and never seen again.

    This is the second series of Fig. 6: for each point in time ``t``, the
    number of PIDs whose *final* disappearance happened more than three days
    before ``t``.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    last_seen = sorted(record.last_seen for record in dataset.peers.values())
    series: Series = []
    t = dataset.started_at
    idx = 0
    while t <= dataset.ended_at + 1e-9:
        cutoff = t - gone_threshold
        while idx < len(last_seen) and last_seen[idx] <= cutoff:
            idx += 1
        series.append((t - dataset.started_at, float(idx)))
        t += step
    return series
