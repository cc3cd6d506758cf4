"""Passive measurement recording.

The paper instruments its clients minimally: a listener on connection events
plus a periodic task that dumps the peerstore.  :class:`MeasurementRecorder`
implements exactly that against the :class:`~repro.ipfs.swarm.Swarm` /
:class:`~repro.ipfs.peerstore.Peerstore` interfaces (go-ipfs node and hydra
head expose the same surface), and :class:`PassiveMeasurement` wires a recorder
to a node plus a polling schedule and produces the final
:class:`~repro.core.records.MeasurementDataset`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol

from repro.core.records import (
    ConnectionRecord,
    MeasurementDataset,
    MetaChangeRecord,
    PeerRecord,
    SnapshotRecord,
)
from repro.ipfs.peerstore import Peerstore
from repro.ipfs.swarm import Swarm
from repro.libp2p.connection import CloseReason, Connection
from repro.libp2p.protocols import KAD_DHT


class MeasuredNode(Protocol):
    """The node surface the recorder needs (IpfsNode and HydraHead provide it)."""

    swarm: Swarm
    peerstore: Peerstore


class MeasurementRecorder:
    """Collects connection events and periodic peerstore snapshots."""

    def __init__(self, label: str, measurement_role: str = "server") -> None:
        self.label = label
        self.measurement_role = measurement_role
        self.started_at: Optional[float] = None
        self._open: Dict[int, Connection] = {}
        self._closed: List[ConnectionRecord] = []
        self._snapshots: List[SnapshotRecord] = []

    # -- SwarmListener interface ---------------------------------------------------

    def on_connected(self, conn: Connection, now: float) -> None:
        if self.started_at is None:
            self.started_at = now
        self._open[conn.connection_id] = conn

    def on_disconnected(self, conn: Connection, now: float) -> None:
        self._open.pop(conn.connection_id, None)
        self._closed.append(self._to_record(conn, closed_at=now))

    # -- periodic polling ------------------------------------------------------------

    def poll(self, now: float, node: MeasuredNode) -> SnapshotRecord:
        """Record one periodic snapshot (every 30 s for go-ipfs, 1 min for hydra)."""
        snapshot = SnapshotRecord(
            timestamp=now,
            simultaneous_connections=node.swarm.connection_count(),
            known_pids=len(node.peerstore),
            connected_pids=node.swarm.connected_peer_count(),
        )
        self._snapshots.append(snapshot)
        return snapshot

    # -- finalisation ------------------------------------------------------------------

    def finalize(self, now: float, node: MeasuredNode) -> MeasurementDataset:
        """Produce the dataset; still-open connections count as closed at ``now``."""
        started = self.started_at if self.started_at is not None else now
        dataset = MeasurementDataset(
            label=self.label,
            started_at=started,
            ended_at=now,
            measurement_role=self.measurement_role,
        )
        dataset.connections = list(self._closed)
        for conn in self._open.values():
            dataset.connections.append(self._to_record(conn, closed_at=now, still_open=True))
        dataset.connections.sort(key=lambda c: c.opened_at)
        dataset.snapshots = list(self._snapshots)

        # The peerstore tracks server announcements as they happen, so later
        # retractions (role flips) do not erase the fact the peer once was a
        # server.
        ever_servers = node.peerstore.ever_dht_servers()
        for entry in node.peerstore.entries():
            dataset.peers[str(entry.peer)] = PeerRecord(
                peer=str(entry.peer),
                first_seen=entry.first_seen,
                last_seen=entry.last_seen,
                agent_version=entry.agent_version,
                protocols=set(entry.protocols),
                addrs=[str(a) for a in entry.addrs],
                observed_ip=entry.observed_addr.ip() if entry.observed_addr else None,
                ever_dht_server=entry.peer in ever_servers or KAD_DHT in entry.protocols,
            )

        for change in node.peerstore.changes():
            dataset.changes.append(
                MetaChangeRecord(
                    timestamp=change.timestamp,
                    peer=str(change.peer),
                    kind=change.kind.value,
                    old_value=_render(change.old_value),
                    new_value=_render(change.new_value),
                )
            )
        dataset.changes.sort(key=lambda c: c.timestamp)
        return dataset

    # -- helpers ---------------------------------------------------------------------------

    @staticmethod
    def _to_record(
        conn: Connection, closed_at: float, still_open: bool = False
    ) -> ConnectionRecord:
        # Once per recorded connection: positional into the slotted record,
        # and ``_value_`` is the plain attribute behind an enum's ``.value``
        # descriptor.
        if still_open:
            reason = CloseReason.STILL_OPEN._value_
        else:
            close_reason = conn.close_reason
            reason = close_reason._value_ if close_reason is not None else None
        remote_addr = conn.remote_addr
        return ConnectionRecord(
            conn.remote_peer.to_base58(),
            conn.direction._value_,
            conn.opened_at,
            closed_at,
            str(remote_addr),
            remote_addr.ip(),
            reason,
            conn.connection_id,
        )


class PassiveMeasurement:
    """Binds a recorder to a node: subscribe, poll, finalise.

    The polling schedule itself is owned by the scenario (a
    :class:`~repro.simulation.engine.PeriodicTask` calling :meth:`poll`), so
    this class stays usable without the simulation engine — e.g. in unit tests
    that drive the node directly.
    """

    def __init__(
        self,
        node: MeasuredNode,
        label: str,
        measurement_role: str = "server",
        poll_interval: float = 30.0,
    ) -> None:
        self.node = node
        self.poll_interval = poll_interval
        self.recorder = MeasurementRecorder(label, measurement_role)
        node.swarm.add_listener(self.recorder)

    def poll(self, now: float) -> SnapshotRecord:
        return self.recorder.poll(now, self.node)

    def finalize(self, now: float) -> MeasurementDataset:
        return self.recorder.finalize(now, self.node)


def _render(value: object) -> object:
    if isinstance(value, (set, frozenset, tuple)):
        return sorted(str(v) for v in value)
    return value
