"""Network-size estimation (Section V, Fig. 7, Table IV).

The paper explores two estimators on top of the passive measurement data:

* **Multiaddress grouping** (Section V.A): PIDs that connected from the same
  IP address are grouped into one "participant".  This collapses PID-rotating
  peers and hydra heads but is confounded by NAT, shared cloud IPs, and
  one-time users.
* **Connection-behaviour classification** (Section V.B, Table IV): peers are
  classified as heavy / normal / light / one-time from their maximum
  connection duration and connection count; heavy peers form the core network
  (the paper: "at least 10k nodes").

Fig. 7's CDFs (maximum connection duration per PID, number of connections per
PID, split by DHT role) are also produced here because the classification is a
direct coarse-graining of those distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.cdf import EmpiricalCDF
from repro.core.classification import (
    ClassificationThresholds,
    PeerClassLabel,
    classify_peer,
)
from repro.core.records import MeasurementDataset


# ------------------------------------------------------------ per-peer observables


@dataclass(frozen=True)
class PeerConnectionSummary:
    """The two observables of Section V.B for one PID."""

    peer: str
    connection_count: int
    max_duration: float
    total_duration: float
    is_dht_server: bool
    role_known: bool


def peer_connection_summaries(dataset: MeasurementDataset) -> Dict[str, PeerConnectionSummary]:
    """Summarise every PID with recorded connections."""
    summaries: Dict[str, PeerConnectionSummary] = {}
    log = dataset.connections
    for peer, durations in log.by_peer(log.durations()).items():
        record = dataset.peers.get(peer)
        is_server = record.is_dht_server() if record else False
        role_known = record.role_known() if record else False
        summaries[peer] = PeerConnectionSummary(
            peer=peer,
            connection_count=len(durations),
            max_duration=max(durations),
            total_duration=sum(durations),
            is_dht_server=is_server,
            role_known=role_known,
        )
    return summaries


# ------------------------------------------------------------------- Fig. 7 CDFs


@dataclass
class ConnectionCDFs:
    """The Fig. 7 CDFs for one peer subset ("all", "DHT-Server", "DHT-Client")."""

    subset: str
    max_duration: EmpiricalCDF
    connection_count: EmpiricalCDF

    def fraction_connected_less_than(self, seconds: float) -> float:
        return self.max_duration.fraction_at(seconds)

    def fraction_connected_more_than(self, seconds: float) -> float:
        return self.max_duration.fraction_above(seconds)


def connection_cdfs(
    dataset: MeasurementDataset,
    bin_width: float = 30.0,
) -> Dict[str, ConnectionCDFs]:
    """Build the Fig. 7 CDFs for "all", "dht-server", and "dht-client" subsets.

    Durations are grouped into ``bin_width`` (30 s) intervals like the paper's
    presentation; grouping only affects plotting granularity, not fractions at
    the anchor points used in the analysis.
    """
    summaries = peer_connection_summaries(dataset)

    def build(subset: str, selected: List[PeerConnectionSummary]) -> ConnectionCDFs:
        durations = [
            round(s.max_duration / bin_width) * bin_width if bin_width > 0 else s.max_duration
            for s in selected
        ]
        counts = [float(s.connection_count) for s in selected]
        return ConnectionCDFs(
            subset=subset,
            max_duration=EmpiricalCDF(durations),
            connection_count=EmpiricalCDF(counts),
        )

    all_peers = list(summaries.values())
    servers = [s for s in all_peers if s.role_known and s.is_dht_server]
    clients = [s for s in all_peers if s.role_known and not s.is_dht_server]
    return {
        "all": build("all", all_peers),
        "dht-server": build("dht-server", servers),
        "dht-client": build("dht-client", clients),
    }


# ------------------------------------------- neighbourhood-density estimator


@dataclass(frozen=True)
class DensityEstimate:
    """Network size inferred from keyspace density around a target key.

    Kademlia keys are uniform, so the ordered distances ``d_1 < … < d_k`` of
    the ``k`` closest observed peers to any target satisfy
    ``E[d_i / 2^256] = i / (N + 1)``; regressing the observed distances on
    their ranks (through the origin) recovers ``N``.  This is the estimator
    family live DHT crawlers and hydra deployments use — and the one a Sybil
    flood mined into the target's neighbourhood inflates without bound,
    because packed mined IDs make the whole keyspace look that dense.
    """

    k: int
    sample_size: int
    estimate: float

    def inflation_over(self, ground_truth: int) -> float:
        if ground_truth <= 0:
            return 0.0
        return self.estimate / ground_truth


def estimate_by_neighborhood_density(
    keys: Sequence[int], target: int, k: int = 20
) -> DensityEstimate:
    """Estimate the network size from the ``k`` observed keys closest to
    ``target`` (``keys``: Kademlia keys of every observed PID)."""
    from repro.kademlia.keys import KEY_BITS, xor_distance

    span = float(1 << KEY_BITS)
    distances = sorted(xor_distance(key, target) for key in keys)[:k]
    if not distances:
        return DensityEstimate(k=k, sample_size=0, estimate=0.0)
    # Least-squares fit of d_i = i / (N + 1) through the origin:
    # N + 1 = sum(i^2) / sum(i * d_i).
    numerator = sum((i + 1) ** 2 for i in range(len(distances)))
    denominator = sum((i + 1) * (d / span) for i, d in enumerate(distances))
    if denominator <= 0.0:
        return DensityEstimate(k=k, sample_size=len(distances), estimate=float("inf"))
    return DensityEstimate(
        k=k,
        sample_size=len(distances),
        estimate=numerator / denominator - 1.0,
    )


# --------------------------------------------------- multiaddress estimator (V.A)


@dataclass
class MultiaddrEstimate:
    """Result of grouping PIDs by the IP they connected from."""

    connected_pids: int
    distinct_ips: int
    groups: int
    singleton_groups: int
    pids_with_unique_ip: int
    largest_group_size: int
    largest_group_ip: Optional[str] = None
    group_sizes: Dict[str, int] = field(default_factory=dict)

    @property
    def estimated_participants(self) -> int:
        """The network-size estimate this method yields (number of IP groups)."""
        return self.groups


def estimate_by_multiaddress(dataset: MeasurementDataset) -> MultiaddrEstimate:
    """Group connected PIDs by source IP address (Section V.A).

    Each PID is assigned to exactly one group — the IP address it connected
    from most often (ties broken by the most recent connection) — so the groups
    partition the connected PIDs and the group count is a network-size
    estimate.  PIDs whose connections carry no resolvable IP are counted as
    connected but belong to no group.
    """
    ip_counts: Dict[str, Dict[str, int]] = {}
    last_ip: Dict[str, str] = {}
    connected_pids: Set[str] = set()
    observed_ips: Set[str] = set()
    log = dataset.connections
    for peer, ip, remote_addr in zip(*map(log.read, ("peer", "remote_ip", "remote_addr"))):
        connected_pids.add(peer)
        if ip is None and remote_addr:
            ip = remote_addr.split("/")[2] if remote_addr.count("/") >= 2 else None
        if ip is None:
            continue
        observed_ips.add(ip)
        per_peer = ip_counts.setdefault(peer, {})
        per_peer[ip] = per_peer.get(ip, 0) + 1
        last_ip[peer] = ip

    pids_by_ip: Dict[str, Set[str]] = {}
    for peer, counts in ip_counts.items():
        best = max(counts, key=lambda ip: (counts[ip], ip == last_ip.get(peer)))
        pids_by_ip.setdefault(best, set()).add(peer)

    group_sizes = {ip: len(pids) for ip, pids in pids_by_ip.items()}
    singleton = sum(1 for size in group_sizes.values() if size == 1)
    largest_ip = max(group_sizes, key=group_sizes.get) if group_sizes else None
    return MultiaddrEstimate(
        connected_pids=len(connected_pids),
        distinct_ips=len(observed_ips),
        groups=len(group_sizes),
        singleton_groups=singleton,
        pids_with_unique_ip=singleton,
        largest_group_size=group_sizes.get(largest_ip, 0) if largest_ip else 0,
        largest_group_ip=largest_ip,
        group_sizes=group_sizes,
    )


# ---------------------------------------------- classification estimator (V.B)


@dataclass
class ClassCount:
    """One row of Table IV."""

    label: PeerClassLabel
    peers: int
    dht_servers: int


@dataclass
class ClassificationEstimate:
    """Result of the connection-behaviour classification (Table IV)."""

    thresholds: ClassificationThresholds
    counts: Dict[PeerClassLabel, ClassCount]
    classified_peers: int

    def count(self, label: PeerClassLabel) -> ClassCount:
        return self.counts[label]

    @property
    def core_size(self) -> int:
        """Heavy peers: the paper's lower bound for the core network."""
        return self.counts[PeerClassLabel.HEAVY].peers

    @property
    def core_user_base(self) -> int:
        """Heavy DHT-Clients ("the core user base" in the paper's wording)."""
        heavy = self.counts[PeerClassLabel.HEAVY]
        return heavy.peers - heavy.dht_servers

    def rows(self) -> List[Tuple[str, int, int]]:
        ordered = [
            PeerClassLabel.HEAVY,
            PeerClassLabel.NORMAL,
            PeerClassLabel.LIGHT,
            PeerClassLabel.ONE_TIME,
        ]
        return [
            (label.value, self.counts[label].peers, self.counts[label].dht_servers)
            for label in ordered
        ]


def classify_peers(
    dataset: MeasurementDataset,
    thresholds: ClassificationThresholds = ClassificationThresholds(),
) -> ClassificationEstimate:
    """Classify every PID with recorded connections (Table IV)."""
    summaries = peer_connection_summaries(dataset)
    counts: Dict[PeerClassLabel, ClassCount] = {
        label: ClassCount(label=label, peers=0, dht_servers=0) for label in PeerClassLabel
    }
    for summary in summaries.values():
        label = classify_peer(summary.max_duration, summary.connection_count, thresholds)
        bucket = counts[label]
        bucket.peers += 1
        if summary.is_dht_server:
            bucket.dht_servers += 1
    return ClassificationEstimate(
        thresholds=thresholds, counts=counts, classified_peers=len(summaries)
    )


# ------------------------------------------------------------------ combined report


@dataclass
class NetworkSizeReport:
    """Both estimators side by side, plus the headline quantities."""

    label: str
    total_pids: int
    multiaddr: MultiaddrEstimate
    classification: ClassificationEstimate
    peak_simultaneous_connections: int

    @property
    def pids_per_simultaneous_connection(self) -> float:
        if self.peak_simultaneous_connections == 0:
            return 0.0
        return self.total_pids / self.peak_simultaneous_connections

    @property
    def estimated_network_size(self) -> int:
        """The paper's headline "roughly 48k peers" figure (IP groups)."""
        return self.multiaddr.estimated_participants

    @property
    def core_network_size(self) -> int:
        """The paper's "core network of at least ~10k nodes" (heavy peers)."""
        return self.classification.core_size


def estimate_network_size(
    dataset: MeasurementDataset,
    thresholds: ClassificationThresholds = ClassificationThresholds(),
) -> NetworkSizeReport:
    """Run both Section V estimators on one dataset."""
    peak = max((s.simultaneous_connections for s in dataset.snapshots), default=0)
    return NetworkSizeReport(
        label=dataset.label,
        total_pids=dataset.pid_count(),
        multiaddr=estimate_by_multiaddress(dataset),
        classification=classify_peers(dataset, thresholds),
        peak_simultaneous_connections=peak,
    )
