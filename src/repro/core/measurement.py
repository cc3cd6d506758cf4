"""Passive measurement recording.

The paper instruments its clients minimally: a listener on connection events
plus a periodic task that dumps the peerstore.  :class:`MeasurementRecorder`
implements exactly that against a vantage point's
:class:`~repro.ipfs.swarm.Swarm` and :class:`~repro.ipfs.peerstore.Peerstore`
(an :class:`~repro.ipfs.node.IpfsNode`: the go-ipfs node or a hydra head), and
:class:`PassiveMeasurement` wires a recorder to a node and produces the final
:class:`~repro.core.records.MeasurementDataset`.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from repro.core.records import (
    ConnectionLog,
    MeasurementDataset,
    MetaChangeRecord,
    PeerRecord,
    SnapshotRecord,
)
from repro.ipfs.node import IpfsNode
from repro.libp2p.connection import CloseReason, Connection
from repro.libp2p.protocols import KAD_DHT


class MeasurementRecorder:
    """Collects connection events and periodic peerstore snapshots.

    Each connection is one row of a :class:`ConnectionLog`, allocated when it
    opens (so rows are in open order) and filled in when it closes; the
    finalised dataset takes the log itself, not a copy.
    """

    def __init__(self, label: str, measurement_role: str = "server") -> None:
        self.label = label
        self.measurement_role = measurement_role
        self.started_at: Optional[float] = None
        self._log = ConnectionLog()
        #: connection id -> row, for every connection still open
        self._open: Dict[int, int] = {}
        #: per row, its place in close order (-1 while open): the order in
        #: which rows opened at the same time are exported
        self._close_seq = array("q")
        self._closes = 0
        self._snapshots: List[SnapshotRecord] = []

    # -- SwarmListener interface ---------------------------------------------------

    def on_connected(self, conn: Connection, now: float) -> None:
        if self.started_at is None:
            self.started_at = now
        self._open[conn.connection_id] = self._open_row(conn)

    def on_disconnected(self, conn: Connection, now: float) -> None:
        row = self._open.pop(conn.connection_id, None)
        if row is None:
            # A close the recorder never saw open still becomes a row.
            row = self._open_row(conn)
        close_reason = conn.close_reason
        self._log.close(row, now, close_reason._value_ if close_reason is not None else None)
        self._close_seq[row] = self._closes
        self._closes += 1

    def _open_row(self, conn: Connection) -> int:
        # Once per connection: the strings are the ones the PeerId and the
        # Multiaddr hold, and ``_value_`` is the plain attribute behind an
        # enum's ``.value`` descriptor.
        remote_addr = conn.remote_addr
        self._close_seq.append(-1)
        return self._log.open(
            conn.remote_peer.to_base58(),
            conn.direction._value_,
            conn.opened_at,
            str(remote_addr),
            remote_addr.ip(),
            conn.connection_id,
        )

    # -- periodic polling ------------------------------------------------------------

    def poll(self, now: float, node: IpfsNode) -> SnapshotRecord:
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

    def finalize(self, now: float, node: IpfsNode) -> MeasurementDataset:
        """Produce the dataset; still-open connections count as closed at ``now``.

        Connections are exported sorted by open time; those opened at the same
        time come closed ones first, in close order, then still-open ones in
        open order.  The dataset shares the recorder's log: recording after a
        finalize changes the dataset it returned.
        """
        started = self.started_at if self.started_at is not None else now
        log = self._log
        for row in self._open.values():
            log.close(row, now, CloseReason.STILL_OPEN._value_)
        # Sort key of equal open times: closed rows by close order, then
        # still-open rows by open order.
        closes = self._closes
        keys = array(
            "q", (seq if seq >= 0 else closes + row for row, seq in enumerate(self._close_seq))
        )
        if log.sort(keys):
            self._close_seq = array("q", (key if key < closes else -1 for key in keys))
            self._open = {
                log.connection_id[row]: row for row, key in enumerate(keys) if key >= closes
            }
        dataset = MeasurementDataset(
            label=self.label,
            started_at=started,
            ended_at=now,
            measurement_role=self.measurement_role,
            connections=log,
        )
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
                protocols=entry.protocols,
                addrs=[str(a) for a in entry.addrs],
                observed_ip=entry.observed_addr.ip() if entry.observed_addr else None,
                ever_dht_server=entry.peer in ever_servers or KAD_DHT in entry.protocols,
            )

        # A set or tuple value is rendered once per distinct value; the
        # records share the list.
        rendered: Dict[object, List[str]] = {}

        def render(value: object) -> object:
            if not isinstance(value, (frozenset, tuple)):
                return value
            shared = rendered.get(value)
            if shared is None:
                shared = rendered[value] = sorted(str(v) for v in value)
            return shared

        for change in node.peerstore.changes():
            dataset.changes.append(
                MetaChangeRecord(
                    timestamp=change.timestamp,
                    peer=str(change.peer),
                    kind=change.kind.value,
                    old_value=render(change.old_value),
                    new_value=render(change.new_value),
                )
            )
        dataset.changes.sort(key=lambda c: c.timestamp)
        return dataset


class PassiveMeasurement:
    """Binds a recorder to a node: subscribe, poll, finalise.

    The polling schedule itself is owned by the scenario (a
    :class:`~repro.simulation.engine.PeriodicTask` calling :meth:`poll`), so
    this class stays usable without the simulation engine — e.g. in unit tests
    that drive the node directly.
    """

    def __init__(self, node: IpfsNode, label: str, measurement_role: str = "server") -> None:
        self.node = node
        self.recorder = MeasurementRecorder(label, measurement_role)
        node.swarm.add_listener(self.recorder)

    def poll(self, now: float) -> SnapshotRecord:
        return self.recorder.poll(now, self.node)

    def finalize(self, now: float) -> MeasurementDataset:
        return self.recorder.finalize(now, self.node)

