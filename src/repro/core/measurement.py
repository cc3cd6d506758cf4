"""Passive measurement recording.

The paper instruments its clients minimally: a listener on connection events
plus a periodic task that dumps the peerstore.  A vantage point (an
:class:`~repro.ipfs.node.IpfsNode`: the go-ipfs node or a hydra head) writes
its connection events and meta-data changes itself, one row each, through
its :class:`MeasurementRecorder`; :class:`PassiveMeasurement` polls the node
and produces the final :class:`~repro.core.records.MeasurementDataset`.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.records import (
    PROTOCOLS,
    ChangeLog,
    ConnectionLog,
    MeasurementDataset,
    PeerRecord,
    SnapshotRecord,
)
from repro.libp2p.connection import CloseReason, Direction
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId
from repro.libp2p.protocols import KAD_DHT

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.ipfs.node import IpfsNode


class MeasurementRecorder:
    """A vantage point's connection and change logs, written as they happen.

    Each connection is one row of a :class:`ConnectionLog`: the row is
    allocated when it opens (so rows are in open order), its index is the
    connection's handle, and it is filled in when it closes.  Each peerstore
    change is one row of a :class:`ChangeLog`.  The finalised dataset takes
    both logs themselves, not copies.
    """

    def __init__(self) -> None:
        self.started_at: Optional[float] = None
        self.log = ConnectionLog()
        self.changes = ChangeLog()
        #: per row, its place in close order (-1 while open): the order in
        #: which rows opened at the same time are exported
        self._close_seq = array("q")
        self._closes = 0
        #: PeerId -> base58 rendering; a fabric hands every vantage point on
        #: it one table, so a PID is rendered once per fabric, not per row
        self.pid_names: Dict[PeerId, str] = {}

    def pid_name(self, peer: PeerId) -> str:
        """``str(peer)``, rendered once per table."""
        name = self.pid_names.get(peer)
        if name is None:
            name = self.pid_names[peer] = peer.to_base58()
        return name

    def on_connected(
        self,
        peer: PeerId,
        direction: Direction,
        remote_addr: Multiaddr,
        connection_id: int,
        now: float,
    ) -> int:
        """A connection opened at ``now``; returns its row."""
        if self.started_at is None:
            self.started_at = now
        self._close_seq.append(-1)
        # The strings are the rendering table's and the Multiaddr's, and
        # ``_value_`` is the plain attribute behind an enum's ``.value``.
        return self.log.open(
            self.pid_name(peer),
            direction._value_,
            now,
            str(remote_addr),
            remote_addr.ip(),
            connection_id,
        )

    def on_change(
        self, peer: PeerId, kind: int, old_value: object, new_value: object, now: float
    ) -> None:
        """The peerstore's meta data of ``peer`` changed at ``now`` (``kind``
        is a :data:`~repro.core.records.CHANGE_KINDS` code)."""
        self.changes.append(now, self.pid_name(peer), kind, old_value, new_value)

    def on_disconnected(self, row: int, reason: CloseReason, now: float) -> None:
        """The connection at ``row`` closed at ``now``."""
        self.log.close(row, now, reason._value_)
        self._close_seq[row] = self._closes
        self._closes += 1

    def finalize(self, now: float) -> Dict[int, int]:
        """Count still-open rows as closed at ``now`` and sort both logs into
        export order; returns old -> new row of every still-open row that
        moved.

        Rows are exported sorted by time; connections opened at the same time
        come closed ones first, in close order, then still-open ones in open
        order.  A still-open row stays open: a later close overwrites it.
        """
        self.changes.sort()
        log = self.log
        closes = self._closes
        # Sort key of equal open times: closed rows by close order, then
        # still-open rows by open order.
        keys = array(
            "q", (seq if seq >= 0 else closes + row for row, seq in enumerate(self._close_seq))
        )
        for row, key in enumerate(keys):
            if key >= closes:
                log.close(row, now, CloseReason.STILL_OPEN._value_)
        if not log.sort(keys):
            return {}
        self._close_seq = array("q", (key if key < closes else -1 for key in keys))
        return {
            key - closes: row
            for row, key in enumerate(keys)
            if key >= closes and key - closes != row
        }


class PassiveMeasurement:
    """Polls a vantage point and turns its recording into a dataset.

    The polling schedule itself is owned by the scenario (a
    :class:`~repro.simulation.engine.PeriodicTask` calling :meth:`poll`), so
    this class stays usable without the simulation engine — e.g. in unit tests
    that drive the node directly.
    """

    def __init__(self, node: IpfsNode, label: str, measurement_role: str = "server") -> None:
        self.node = node
        self.label = label
        self.measurement_role = measurement_role
        self._snapshots: List[SnapshotRecord] = []

    def poll(self, now: float) -> SnapshotRecord:
        """Record one periodic snapshot (every 30 s for go-ipfs, 1 min for hydra)."""
        connmgr = self.node.connmgr
        snapshot = SnapshotRecord(
            timestamp=now,
            simultaneous_connections=connmgr.connection_count(),
            known_pids=len(self.node.peerstore),
            connected_pids=connmgr.connected_peer_count(),
        )
        self._snapshots.append(snapshot)
        return snapshot

    # -- finalisation ------------------------------------------------------------------

    def finalize(self, now: float) -> MeasurementDataset:
        """Produce the dataset; still-open connections count as closed at ``now``.

        The dataset shares the node's logs (see
        :meth:`MeasurementRecorder.finalize` for their order): recording after
        a finalize changes the dataset it returned.  A still-open row may move
        when the log is sorted; the node's table follows it, so a row handle
        held elsewhere is valid only up to the finalize (the simulation
        finalizes once, at the end of the run).
        """
        node = self.node
        recorder = node.recorder
        node.connmgr.renumber(recorder.finalize(now))
        dataset = MeasurementDataset(
            label=self.label,
            started_at=recorder.started_at if recorder.started_at is not None else now,
            ended_at=now,
            measurement_role=self.measurement_role,
            connections=recorder.log,
            changes=recorder.changes,
        )
        dataset.snapshots = list(self._snapshots)

        # Every protocol set a peer announced is a row of the change log, so a
        # later retraction (a role flip) does not erase that it was a server.
        changes = recorder.changes
        ever_servers = {
            peer
            for peer, kind, announced in zip(changes.peer, changes.kind, changes.new_value)
            if kind == PROTOCOLS and KAD_DHT in announced
        }
        pid_name = recorder.pid_name
        for entry in node.peerstore.entries():
            name = pid_name(entry.peer)
            dataset.peers[name] = PeerRecord(
                peer=name,
                first_seen=entry.first_seen,
                last_seen=entry.last_seen,
                agent_version=entry.agent_version,
                protocols=entry.protocols,
                addrs=[str(a) for a in entry.addrs],
                observed_ip=entry.observed_addr.ip() if entry.observed_addr else None,
                ever_dht_server=name in ever_servers,
            )
        return dataset

