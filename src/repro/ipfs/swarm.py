"""The swarm: the set of live connections of a node.

The swarm owns connection lifecycle (open, close, trim) and notifies listeners
about every change — the passive measurement recorder is exactly such a
listener.  Trimming is delegated to the libp2p connection manager; the swarm
is the component that actually closes the victims and reports why.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Protocol

from repro.libp2p.connection import CloseReason, Connection, Direction
from repro.libp2p.connmgr import ConnManagerConfig, ConnectionManager
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId


class SwarmListener(Protocol):
    """Receives connection lifecycle notifications (go-libp2p's ``Notifiee``)."""

    def on_connected(self, conn: Connection, now: float) -> None:  # pragma: no cover
        ...

    def on_disconnected(self, conn: Connection, now: float) -> None:  # pragma: no cover
        ...


class Swarm:
    """Connection container with connection-manager based trimming."""

    def __init__(
        self, local_peer: PeerId, connmgr_config: Optional[ConnManagerConfig] = None
    ) -> None:
        self.local_peer = local_peer
        self.connmgr = ConnectionManager(connmgr_config)
        self._listeners: List[SwarmListener] = []
        self._open_by_id: Dict[int, Connection] = {}
        #: where connection ids come from: this swarm's own sequence, until a
        #: SimulatedNetwork points every swarm it hosts at its shared one (ids
        #: are then unique fabric-wide and a run never depends on earlier runs)
        self.connection_ids: Iterator[int] = itertools.count(1)
        self.total_opened = 0
        self.total_closed = 0

    # -- listeners ----------------------------------------------------------------

    def add_listener(self, listener: SwarmListener) -> None:
        self._listeners.append(listener)

    # -- queries ------------------------------------------------------------------

    def connection_count(self) -> int:
        return len(self._open_by_id)

    def connections(self) -> List[Connection]:
        return list(self._open_by_id.values())

    def is_connected(self, peer: PeerId) -> bool:
        # The connection manager indexes connections per peer; O(1) versus
        # scanning every open connection (this is on the close path of every
        # single connection the measurement node sees).
        return self.connmgr.is_connected(peer)

    def connected_peer_count(self) -> int:
        """Distinct peers with an open connection (the snapshot 'connected PIDs')."""
        return self.connmgr.connected_peer_count()

    # -- lifecycle ----------------------------------------------------------------

    def open_connection(
        self,
        remote_peer: PeerId,
        remote_addr: Multiaddr,
        direction: Direction,
        now: float,
    ) -> Connection:
        """Open (register) a new connection and notify listeners."""
        connection_id = next(self.connection_ids)
        conn = Connection(remote_peer, direction, remote_addr, now, connection_id)
        self._open_by_id[connection_id] = conn
        self.connmgr.add_connection(conn)
        self.total_opened += 1
        for listener in self._listeners:
            listener.on_connected(conn, now)
        return conn

    def close_connection(self, conn: Connection, reason: CloseReason, now: float) -> None:
        """Close one connection; safe to call only for open connections."""
        connection_id = conn.connection_id
        if connection_id not in self._open_by_id:
            raise KeyError(f"connection {connection_id} is not open in this swarm")
        conn.close(now, reason)
        del self._open_by_id[connection_id]
        self.connmgr.remove_connection(conn)
        self.total_closed += 1
        for listener in self._listeners:
            listener.on_disconnected(conn, now)

    def trim(self, now: float, force: bool = False) -> List[Connection]:
        """Run the connection manager and close its victims."""
        victims = self.connmgr.trim(now, force=force)
        open_by_id = self._open_by_id
        listeners = self._listeners
        for conn in victims:
            # The connmgr already dropped its own bookkeeping for the victims;
            # the swarm still owns the close (and the notification).
            connection_id = conn.connection_id
            if connection_id in open_by_id:
                conn.close(now, CloseReason.LOCAL_TRIM)
                del open_by_id[connection_id]
                self.total_closed += 1
                for listener in listeners:
                    listener.on_disconnected(conn, now)
        return victims

    # -- tagging passthrough ---------------------------------------------------------

    def tag_peer(self, peer: PeerId, tag: str, value: int) -> None:
        self.connmgr.tag_peer(peer, tag, value)
