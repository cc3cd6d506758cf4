"""The measurement record schema.

The paper's modified clients periodically export JSON files with, per PID, the
agent version, supported protocols and multiaddresses (plus timestamped
changes), and per connection the direction, multiaddress, open time and
connectedness.  :class:`MeasurementDataset` is the in-memory form of that
export; every analysis function in :mod:`repro.core` consumes it.

The records deliberately use plain strings for peer IDs and multiaddresses so a
dataset round-trips through JSON and could equally be loaded from a real
go-ipfs measurement export with a thin adapter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Set

from repro.libp2p.protocols import KAD_DHT, supports_bitswap

#: sentinel agent value for peers whose identify never completed
MISSING_AGENT = None


@dataclass(slots=True)
class ConnectionRecord:
    """One observed connection of the measurement node.

    Slotted (a run keeps one per connection it saw) and built positionally by
    the recorder, so field order is part of the class's contract.
    """

    peer: str
    direction: str              # "inbound" | "outbound"
    opened_at: float
    closed_at: float
    remote_addr: Optional[str] = None
    remote_ip: Optional[str] = None
    close_reason: Optional[str] = None
    connection_id: Optional[int] = None

    @property
    def duration(self) -> float:
        return max(0.0, self.closed_at - self.opened_at)

    def as_dict(self) -> dict:
        return {
            "peer": self.peer,
            "direction": self.direction,
            "opened_at": self.opened_at,
            "closed_at": self.closed_at,
            "remote_addr": self.remote_addr,
            "remote_ip": self.remote_ip,
            "close_reason": self.close_reason,
            "connection_id": self.connection_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ConnectionRecord":
        return cls(**data)


@dataclass
class MetaChangeRecord:
    """A timestamped change to a peer's announced meta data."""

    timestamp: float
    peer: str
    kind: str                   # "agent" | "protocols" | "addrs" | "first-seen"
    old_value: Optional[object] = None
    new_value: Optional[object] = None

    def as_dict(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "peer": self.peer,
            "kind": self.kind,
            "old_value": _jsonable(self.old_value),
            "new_value": _jsonable(self.new_value),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetaChangeRecord":
        return cls(
            timestamp=data["timestamp"],
            peer=data["peer"],
            kind=data["kind"],
            old_value=data.get("old_value"),
            new_value=data.get("new_value"),
        )


@dataclass
class PeerRecord:
    """Everything the measurement node learned about one PID."""

    peer: str
    first_seen: float
    last_seen: float
    agent_version: Optional[str] = MISSING_AGENT
    protocols: Set[str] = field(default_factory=set)
    addrs: List[str] = field(default_factory=list)
    observed_ip: Optional[str] = None
    #: whether the peer announced /ipfs/kad/1.0.0 at any point
    ever_dht_server: bool = False

    def is_dht_server(self) -> bool:
        """Role as determined from exchanged protocol information."""
        return self.ever_dht_server or KAD_DHT in self.protocols

    def has_bitswap(self) -> bool:
        return supports_bitswap(self.protocols)

    def role_known(self) -> bool:
        """True when we received protocol information for this peer at all."""
        return bool(self.protocols)

    def as_dict(self) -> dict:
        return {
            "peer": self.peer,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "agent_version": self.agent_version,
            "protocols": sorted(self.protocols),
            "addrs": list(self.addrs),
            "observed_ip": self.observed_ip,
            "ever_dht_server": self.ever_dht_server,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PeerRecord":
        return cls(
            peer=data["peer"],
            first_seen=data["first_seen"],
            last_seen=data["last_seen"],
            agent_version=data.get("agent_version"),
            protocols=set(data.get("protocols", ())),
            addrs=list(data.get("addrs", ())),
            observed_ip=data.get("observed_ip"),
            ever_dht_server=data.get("ever_dht_server", False),
        )


@dataclass
class SnapshotRecord:
    """One periodic poll of the measurement node's state."""

    timestamp: float
    simultaneous_connections: int
    known_pids: int
    connected_pids: int

    def as_dict(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "simultaneous_connections": self.simultaneous_connections,
            "known_pids": self.known_pids,
            "connected_pids": self.connected_pids,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SnapshotRecord":
        return cls(**data)


@dataclass
class MeasurementDataset:
    """The full export of one measurement client over one period."""

    label: str                               # e.g. "go-ipfs", "hydra-H0"
    started_at: float
    ended_at: float
    measurement_role: str = "server"         # role of the *measurement node*
    peers: Dict[str, PeerRecord] = field(default_factory=dict)
    connections: List[ConnectionRecord] = field(default_factory=list)
    changes: List[MetaChangeRecord] = field(default_factory=list)
    snapshots: List[SnapshotRecord] = field(default_factory=list)

    # -- basic accessors -----------------------------------------------------------

    @property
    def duration(self) -> float:
        return self.ended_at - self.started_at

    def pids(self) -> List[str]:
        return list(self.peers.keys())

    def pid_count(self) -> int:
        return len(self.peers)

    def connection_count(self) -> int:
        return len(self.connections)

    def connections_by_peer(self) -> Dict[str, List[ConnectionRecord]]:
        grouped: Dict[str, List[ConnectionRecord]] = {}
        for conn in self.connections:
            grouped.setdefault(conn.peer, []).append(conn)
        return grouped

    def dht_server_pids(self) -> List[str]:
        """Peers identified as DHT-Servers from exchanged protocol information."""
        return [pid for pid, record in self.peers.items() if record.is_dht_server()]

    def dht_client_pids(self) -> List[str]:
        """Peers whose protocols are known and do not include the kad protocol."""
        return [
            pid
            for pid, record in self.peers.items()
            if record.role_known() and not record.is_dht_server()
        ]

    def changes_of_kind(self, kind: str) -> List[MetaChangeRecord]:
        return [c for c in self.changes if c.kind == kind]

    def merge_peer(self, record: PeerRecord) -> None:
        """Merge a peer record (union of knowledge) into the dataset."""
        existing = self.peers.get(record.peer)
        if existing is None:
            self.peers[record.peer] = record
            return
        existing.first_seen = min(existing.first_seen, record.first_seen)
        existing.last_seen = max(existing.last_seen, record.last_seen)
        if record.agent_version is not None:
            existing.agent_version = record.agent_version
        existing.protocols |= record.protocols
        for addr in record.addrs:
            if addr not in existing.addrs:
                existing.addrs.append(addr)
        if record.observed_ip is not None:
            existing.observed_ip = record.observed_ip
        existing.ever_dht_server = existing.ever_dht_server or record.ever_dht_server

    # -- serialisation ----------------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "measurement_role": self.measurement_role,
            "peers": {pid: record.as_dict() for pid, record in self.peers.items()},
            "connections": [c.as_dict() for c in self.connections],
            "changes": [c.as_dict() for c in self.changes],
            "snapshots": [s.as_dict() for s in self.snapshots],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MeasurementDataset":
        dataset = cls(
            label=data["label"],
            started_at=data["started_at"],
            ended_at=data["ended_at"],
            measurement_role=data.get("measurement_role", "server"),
        )
        dataset.peers = {
            pid: PeerRecord.from_dict(rec) for pid, rec in data.get("peers", {}).items()
        }
        dataset.connections = [
            ConnectionRecord.from_dict(c) for c in data.get("connections", ())
        ]
        dataset.changes = [MetaChangeRecord.from_dict(c) for c in data.get("changes", ())]
        dataset.snapshots = [SnapshotRecord.from_dict(s) for s in data.get("snapshots", ())]
        return dataset

    # -- dataset combination ---------------------------------------------------------------

    @classmethod
    def union(cls, datasets: Sequence["MeasurementDataset"], label: str) -> "MeasurementDataset":
        """Union several datasets (e.g. all hydra heads) into one view.

        Fig. 2 reports "the union of all heads" for the hydra; connection and
        change lists are concatenated, peer records merged.
        """
        if not datasets:
            raise ValueError("union of zero datasets")
        merged = cls(
            label=label,
            started_at=min(d.started_at for d in datasets),
            ended_at=max(d.ended_at for d in datasets),
            measurement_role=datasets[0].measurement_role,
        )
        for dataset in datasets:
            for record in dataset.peers.values():
                merged.merge_peer(
                    PeerRecord.from_dict(record.as_dict())
                )
            merged.connections.extend(dataset.connections)
            merged.changes.extend(dataset.changes)
            merged.snapshots.extend(dataset.snapshots)
        merged.connections.sort(key=lambda c: c.opened_at)
        merged.changes.sort(key=lambda c: c.timestamp)
        merged.snapshots.sort(key=lambda s: s.timestamp)
        return merged


def primary_dataset_label(labels: Collection[str]) -> Optional[str]:
    """The dataset a run is judged by, out of its dataset labels (any mapping
    keyed by them will do): go-ipfs if deployed, else the hydra union."""
    for label in ("go-ipfs", "hydra"):
        if label in labels:
            return label
    return min(labels, default=None)


def _jsonable(value: object) -> object:
    """Convert frozensets/tuples from the peerstore change log into JSON lists."""
    if isinstance(value, (set, frozenset, tuple)):
        return sorted(str(v) for v in value)
    return value
