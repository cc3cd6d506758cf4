"""Network-realism subsystem: regions, latency, NAT/reachability, timeouts.

See :mod:`repro.netmodel.config` for the model description.  Attach a
:class:`NetModelConfig` to ``PopulationConfig.netmodel`` to activate it;
``None`` (the default) keeps the idealised zero-latency, fully-dialable
fabric byte-identical to earlier builds.
"""

from repro.netmodel.config import (
    NAT,
    PUBLIC,
    RELAYED,
    NetModelConfig,
    ReachabilityConfig,
    RegionModelConfig,
)
from repro.netmodel.runtime import NetModelRuntime, NetModelStats, PeerNet, WalkClock

__all__ = [
    "NAT",
    "PUBLIC",
    "RELAYED",
    "NetModelConfig",
    "NetModelRuntime",
    "NetModelStats",
    "PeerNet",
    "ReachabilityConfig",
    "RegionModelConfig",
    "WalkClock",
]
