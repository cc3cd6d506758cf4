"""The libp2p basic connection manager.

go-libp2p's ``BasicConnMgr`` watches the number of open connections.  Once it
exceeds ``HighWater`` it trims connections down to ``LowWater``, closing the
lowest-scored connections that are past a grace period.  go-ipfs defaults to
``LowWater=600`` / ``HighWater=900`` / ``GracePeriod=20 s``.

The paper's central churn finding is that this mechanism — not node churn — is
responsible for the very short connection durations observed at DHT-Servers:
connections are mostly closed because either side trims them.  The paper's
experiments vary exactly these two thresholds per measurement period
(Table I) and observe durations grow when trimming relaxes (Table II, Fig. 5).

This implementation mirrors the relevant behaviour: tags/scores, the grace
period, and the trim-to-LowWater policy (oldest connections of the lowest-scored
peers are preferred to be kept; untagged young peers go first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.libp2p.connection import Connection
from repro.libp2p.peer_id import PeerId

#: go-ipfs default connection-manager thresholds (v0.11).
DEFAULT_LOW_WATER = 600
DEFAULT_HIGH_WATER = 900
DEFAULT_GRACE_PERIOD = 20.0


@dataclass(frozen=True)
class ConnManagerConfig:
    """Connection manager thresholds (the paper's Table I knobs)."""

    low_water: int = DEFAULT_LOW_WATER
    high_water: int = DEFAULT_HIGH_WATER
    grace_period: float = DEFAULT_GRACE_PERIOD
    #: minimum simulated time between trim runs (go-libp2p uses 1 min ticks plus
    #: immediate trims on threshold crossing; we model the immediate variant).
    silence_period: float = 10.0

    def __post_init__(self) -> None:
        if self.low_water < 0:
            raise ValueError(f"low_water {self.low_water} < 0")
        if self.high_water < 0:
            raise ValueError(f"high_water {self.high_water} < 0")
        if self.low_water > self.high_water:
            raise ValueError(f"low_water {self.low_water} > high_water {self.high_water}")
        if self.grace_period < 0:
            raise ValueError(f"grace_period {self.grace_period} < 0")
        if self.silence_period < 0:
            raise ValueError(f"silence_period {self.silence_period} < 0")

    @classmethod
    def defaults(cls) -> "ConnManagerConfig":
        return cls()


class ConnectionManager:
    """Tracks open connections of a node and trims them between watermarks."""

    def __init__(self, config: Optional[ConnManagerConfig] = None) -> None:
        self.config = config or ConnManagerConfig.defaults()
        self._connections: Dict[int, Connection] = {}
        self._peer_conns: Dict[PeerId, Set[int]] = {}
        #: tag name -> value per tagged peer (go-libp2p's ``TagInfo.Tags``);
        #: only :meth:`tag_peer` creates a peer's map
        self._tags: Dict[PeerId, Dict[str, int]] = {}
        self._last_trim: float = float("-inf")
        self.trim_count: int = 0
        self.trimmed_connections: int = 0

    # -- connection bookkeeping -------------------------------------------------

    def add_connection(self, conn: Connection) -> None:
        """Register a newly opened connection."""
        cid = conn.connection_id
        if cid in self._connections:
            raise ValueError(f"connection {cid} already tracked")
        self._connections[cid] = conn
        peer = conn.remote_peer
        ids = self._peer_conns.get(peer)
        if ids is None:
            self._peer_conns[peer] = {cid}
        else:
            ids.add(cid)

    def remove_connection(self, conn: Connection) -> None:
        """Forget a connection that was closed externally."""
        self._connections.pop(conn.connection_id, None)
        peers = self._peer_conns.get(conn.remote_peer)
        if peers is not None:
            peers.discard(conn.connection_id)
            if not peers:
                del self._peer_conns[conn.remote_peer]

    def connection_count(self) -> int:
        return len(self._connections)

    def is_connected(self, peer: PeerId) -> bool:
        return peer in self._peer_conns

    def connected_peer_count(self) -> int:
        """Number of distinct peers with at least one open connection (O(1))."""
        return len(self._peer_conns)

    # -- tagging ---------------------------------------------------------------

    def tag_peer(self, peer: PeerId, tag: str, value: int) -> None:
        """Attach a weighted tag (e.g. the DHT tags its routing-table peers)."""
        tags = self._tags.get(peer)
        if tags is None:
            self._tags[peer] = {tag: value}
        else:
            tags[tag] = value

    def untag_peer(self, peer: PeerId, tag: str) -> None:
        tags = self._tags.get(peer)
        if tags is not None:
            tags.pop(tag, None)

    # -- trimming ---------------------------------------------------------------

    def needs_trim(self) -> bool:
        return self.connection_count() > self.config.high_water

    def select_victims(self, now: float) -> List[Connection]:
        """Return the connections a trim run would close, lowest priority first.

        Mirrors go-libp2p: connections still inside the grace period survive;
        the remainder is sorted by peer tag value (ascending) and, within equal
        value, by connection age (youngest closed first — go-libp2p keeps
        long-standing connections).
        """
        excess = len(self._connections) - self.config.low_water
        if excess <= 0:
            return []
        tags = self._tags
        grace_period = self.config.grace_period
        # (value, -opened_at, candidate position, conn): lowest score first,
        # among equals youngest first, and the unique position both reproduces
        # a stable sort's tie-break and keeps Connections from being compared.
        candidates: List[Tuple[int, float, int, Connection]] = []
        for conn in self._connections.values():
            opened_at = conn.opened_at
            if now - opened_at < grace_period:
                continue
            peer_tags = tags.get(conn.remote_peer)
            value = 0 if peer_tags is None else sum(peer_tags.values())
            candidates.append((value, -opened_at, len(candidates), conn))
        candidates.sort()
        return [item[3] for item in candidates[:excess]]

    def trim(self, now: float, force: bool = False) -> List[Connection]:
        """Run a trim cycle; returns the victims (caller actually closes them).

        ``force`` bypasses the HighWater check and the silence period, which is
        how go-libp2p's manual ``TrimOpenConns`` behaves.
        """
        if not force:
            if not self.needs_trim():
                return []
            if now - self._last_trim < self.config.silence_period:
                return []
        victims = self.select_victims(now)
        self._last_trim = now
        if victims:
            self.trim_count += 1
            self.trimmed_connections += len(victims)
        for conn in victims:
            self.remove_connection(conn)
        return victims
