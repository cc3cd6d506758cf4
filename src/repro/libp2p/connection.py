"""What a connection record says about direction and close reason.

The measurement exporter in the paper records direction, multiaddress, open
time and connectedness per connection-id; the churn analysis (Table II) is
computed over the resulting durations.  A connection itself is a row of its
vantage point's :class:`~repro.core.records.ConnectionLog`; these two enums
are the values of its ``direction`` and ``close_reason`` columns.
"""

from __future__ import annotations

import enum


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
