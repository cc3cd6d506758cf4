"""Connections between peers.

A connection carries a direction (from the perspective of the local node), the
remote multiaddress, open/close timestamps and a close reason.  The measurement
exporter in the paper records exactly direction, multiaddress, open time and
connectedness per connection-id; the churn analysis (Table II) is computed over
the resulting durations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId


class Direction(enum.Enum):
    """Direction of a connection from the local node's point of view."""

    INBOUND = "inbound"
    OUTBOUND = "outbound"


class CloseReason(enum.Enum):
    """Why a connection was closed (the simulator tags every close)."""

    LOCAL_TRIM = "local-trim"          # our connection manager trimmed it
    REMOTE_TRIM = "remote-trim"        # the remote's connection manager trimmed it
    REMOTE_LEFT = "remote-left"        # the remote node went offline
    PROTOCOL_DONE = "protocol-done"    # short-lived exchange finished (e.g. crawler)
    ERROR = "error"
    STILL_OPEN = "still-open"          # never closed; measurement end counts as close


@dataclass(slots=True)
class Connection:
    """A single (possibly still open) connection to a remote peer.

    Slotted: a vantage point opens one per contact, hundreds of thousands a
    run.  The fabric builds it positionally, so field order is part of the
    class's contract.
    """

    remote_peer: PeerId
    direction: Direction
    remote_addr: Multiaddr
    opened_at: float
    #: handed out by the opening swarm (see ``Swarm.connection_ids``)
    connection_id: int
    closed_at: Optional[float] = None
    close_reason: Optional[CloseReason] = None

    @property
    def is_open(self) -> bool:
        return self.closed_at is None

    def close(self, now: float, reason: CloseReason) -> None:
        if self.closed_at is not None:
            raise RuntimeError(f"connection {self.connection_id} already closed")
        if now < self.opened_at:
            raise ValueError("close time precedes open time")
        self.closed_at = now
        self.close_reason = reason

    def duration(self, now: Optional[float] = None) -> float:
        """Connection duration; open connections are measured up to ``now``.

        The paper counts connections still open at the end of a measurement as
        closed at that moment, which is what passing ``now`` expresses.
        """
        if self.closed_at is not None:
            return self.closed_at - self.opened_at
        if now is None:
            raise ValueError("duration of an open connection requires 'now'")
        return max(0.0, now - self.opened_at)
