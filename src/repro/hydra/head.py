"""A single hydra head.

A head provides "basic networking functionality and DHT management": it
announces itself as a DHT-Server with its own PeerId, swarm, peerstore, and
connection manager, but no Bitswap (hydras never exchange content).  Heads
are deliberately spread over the keyspace so the hydra as a whole covers more
of the DHT.  As a vantage point a head is passive: it accepts connections,
records identify (DHT-Servers enter its routing table and get the ``kad``
tag) and trims; the routing those peers do happens in the simulated network,
not in the head.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.ipfs.peerstore import Peerstore
from repro.ipfs.swarm import Swarm
from repro.kademlia.routing_table import RoutingTable
from repro.libp2p.connection import CloseReason, Connection, Direction
from repro.libp2p.connmgr import ConnManagerConfig
from repro.libp2p.crypto import generate_keypair
from repro.libp2p.identify import IdentifyRecord
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId
from repro.libp2p.protocols import KAD_DHT

#: hydra-booster does not apply go-ipfs's tight defaults; heads keep many more
#: connections before trimming (modelled after its much higher limits).
HYDRA_LOW_WATER = 15_000
HYDRA_HIGH_WATER = 20_000


class HydraHead:
    """One head: an independent DHT-Server identity of the hydra."""

    def __init__(
        self,
        head_index: int,
        rng: Optional[random.Random] = None,
        low_water: int = HYDRA_LOW_WATER,
        high_water: int = HYDRA_HIGH_WATER,
        port: int = 3001,
    ) -> None:
        self.head_index = head_index
        self.rng = rng or random.Random()
        self.keypair = generate_keypair(self.rng)
        self.peer_id = PeerId.from_keypair(self.keypair)
        self.port = port + head_index
        self.peerstore = Peerstore()
        self.swarm = Swarm(
            self.peer_id,
            ConnManagerConfig(low_water=low_water, high_water=high_water),
        )
        #: the DHT-Servers identify has announced
        self.routing_table = RoutingTable(self.peer_id)

    # -- connection handling (mirrors IpfsNode's surface) ---------------------------

    def handle_inbound_connection(
        self, remote_peer: PeerId, remote_addr: Multiaddr, now: float
    ) -> Connection:
        conn = self.swarm.open_connection(remote_peer, remote_addr, Direction.INBOUND, now)
        self.peerstore.set_connected(remote_peer, True, now, observed_addr=remote_addr)
        return conn

    def dial(self, remote_peer: PeerId, remote_addr: Multiaddr, now: float) -> Connection:
        conn = self.swarm.open_connection(remote_peer, remote_addr, Direction.OUTBOUND, now)
        self.peerstore.set_connected(remote_peer, True, now, observed_addr=remote_addr)
        return conn

    def close_connection(self, conn: Connection, reason: CloseReason, now: float) -> None:
        self.swarm.close_connection(conn, reason, now)
        if not self.swarm.is_connected(conn.remote_peer):
            self.peerstore.set_connected(conn.remote_peer, False, now)

    def receive_identify(self, remote_peer: PeerId, record: IdentifyRecord, now: float) -> None:
        self.peerstore.record_identify(remote_peer, record, now)
        if KAD_DHT in record.protocols:
            self.routing_table.add_peer(remote_peer)
            self.swarm.tag_peer(remote_peer, "kad", 5)
        else:
            self.routing_table.remove_peer(remote_peer)

    def tick(self, now: float) -> List[Connection]:
        return self.swarm.trim(now)

    def connection_count(self) -> int:
        return self.swarm.connection_count()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"HydraHead(#{self.head_index}, {self.peer_id.short()})"
