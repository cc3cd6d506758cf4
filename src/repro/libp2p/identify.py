"""The identify protocol's data record.

When two libp2p peers connect they exchange an *identify* message containing
the agent-version string, the list of supported protocols, and the addresses
the peer believes it is reachable at.  The paper's measurement nodes record
exactly this meta data per PID and track changes to it over time (Section IV.B,
Fig. 3, Fig. 4, Table III).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.protocols import supports_bitswap, supports_dht_server


@dataclass(frozen=True, slots=True)
class IdentifyRecord:
    """A snapshot of the meta data a peer announces via identify.

    ``make`` keeps a frozenset of protocols and a tuple of addresses as they
    are (``frozenset(x)`` / ``tuple(x)`` return ``x``), so records built from
    shared values share them.
    """

    agent_version: Optional[str]
    protocols: FrozenSet[str]
    listen_addrs: Tuple[Multiaddr, ...] = ()

    @classmethod
    def make(
        cls,
        agent_version: Optional[str],
        protocols: Iterable[str],
        listen_addrs: Iterable[Multiaddr] = (),
    ) -> "IdentifyRecord":
        return cls(
            agent_version=agent_version,
            protocols=frozenset(protocols),
            listen_addrs=tuple(listen_addrs),
        )

    def is_dht_server(self) -> bool:
        """A peer announcing /ipfs/kad/1.0.0 acts as a DHT-Server."""
        return supports_dht_server(self.protocols)

    def has_bitswap(self) -> bool:
        return supports_bitswap(self.protocols)
