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
from typing import Dict, List, Sequence, Tuple

from repro.libp2p.peer_id import PeerId

#: go-ipfs default connection-manager thresholds (v0.11).
DEFAULT_LOW_WATER = 600
DEFAULT_HIGH_WATER = 900
#: go-ipfs's ``GracePeriod``: a connection younger than this is never trimmed
GRACE_PERIOD = 20.0
#: minimum simulated time between trim runs (go-libp2p uses 1 min ticks plus
#: immediate trims on threshold crossing; we model the immediate variant).
SILENCE_PERIOD = 10.0


@dataclass(frozen=True)
class ConnManagerConfig:
    """Connection manager thresholds (the paper's Table I knobs)."""

    low_water: int = DEFAULT_LOW_WATER
    high_water: int = DEFAULT_HIGH_WATER

    def __post_init__(self) -> None:
        if self.low_water < 0:
            raise ValueError(f"low_water {self.low_water} < 0")
        if self.high_water < 0:
            raise ValueError(f"high_water {self.high_water} < 0")
        if self.low_water > self.high_water:
            raise ValueError(f"low_water {self.low_water} > high_water {self.high_water}")

    @classmethod
    def defaults(cls) -> "ConnManagerConfig":
        return cls()


class ConnectionManager:
    """Tracks a vantage point's open connections and trims them between watermarks.

    A connection is a row of the vantage point's
    :class:`~repro.core.records.ConnectionLog`.  The manager's row → remote
    peer table, in open order, with open counts per peer, is the one record
    of which rows are open; a row's open time is read from the log's
    ``opened_at`` column.
    """

    def __init__(self, config: ConnManagerConfig, opened_at: Sequence[float]) -> None:
        self.config = config
        self._opened_at = opened_at
        self._open: Dict[int, PeerId] = {}
        self._peer_conns: Dict[PeerId, int] = {}
        #: tag name -> value per tagged peer (go-libp2p's ``TagInfo.Tags``);
        #: only :meth:`tag_peer` creates a peer's map
        self._tags: Dict[PeerId, Dict[str, int]] = {}
        self._last_trim: float = float("-inf")

    # -- connection bookkeeping -------------------------------------------------

    def add_connection(self, row: int, peer: PeerId) -> None:
        """Register a newly opened connection."""
        if row in self._open:
            raise ValueError(f"row {row} already open")
        self._open[row] = peer
        peer_conns = self._peer_conns
        peer_conns[peer] = peer_conns.get(peer, 0) + 1

    def remove_connection(self, row: int) -> PeerId:
        """Forget a closed connection (KeyError unless open); returns its peer."""
        peer = self._open.pop(row)
        left = self._peer_conns[peer] - 1
        if left:
            self._peer_conns[peer] = left
        else:
            del self._peer_conns[peer]
        return peer

    def renumber(self, moved: Dict[int, int]) -> None:
        """Open rows moved to new rows (the log was sorted): old -> new."""
        if moved:
            self._open = {moved.get(row, row): peer for row, peer in self._open.items()}

    def connection_count(self) -> int:
        return len(self._open)

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

    def select_victims(self, now: float) -> List[int]:
        """Return the rows a trim run would close, lowest priority first.

        Mirrors go-libp2p: connections still inside the grace period survive;
        the remainder is sorted by peer tag value (ascending) and, within equal
        value, by connection age (youngest closed first — go-libp2p keeps
        long-standing connections).  Among equals the earlier-opened row goes
        first: rows that opened at the same time are in open order.
        """
        excess = len(self._open) - self.config.low_water
        if excess <= 0:
            return []
        tags = self._tags
        opened = self._opened_at
        grace_period = GRACE_PERIOD
        # (value, -opened_at, row): lowest score first, among equals youngest
        # first, then open order
        candidates: List[Tuple[int, float, int]] = []
        for row, peer in self._open.items():
            opened_at = opened[row]
            if now - opened_at < grace_period:
                continue
            peer_tags = tags.get(peer)
            value = 0 if peer_tags is None else sum(peer_tags.values())
            candidates.append((value, -opened_at, row))
        candidates.sort()
        return [item[2] for item in candidates[:excess]]

    def trim(self, now: float, force: bool = False) -> List[int]:
        """Run a trim cycle; returns the victim rows (the caller closes them).

        ``force`` bypasses the HighWater check and the silence period, which is
        how go-libp2p's manual ``TrimOpenConns`` behaves.
        """
        if not force:
            if len(self._open) <= self.config.high_water:
                return []
            if now - self._last_trim < SILENCE_PERIOD:
                return []
        self._last_trim = now
        return self.select_victims(now)
