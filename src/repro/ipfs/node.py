"""The passive measurement vantage point.

An :class:`IpfsNode` bundles identity, peerstore, swarm (with connection
manager) and the routing table identify fills into the one vantage-point
class: the simulation deploys it as the paper's go-ipfs node, and every hydra
head is one too (:class:`~repro.hydra.head.HydraHead` only picks its
config).  It is passive, like the paper's clients: it accepts connections,
reads identify, tags DHT-Servers for the connection manager and trims.  It
issues and answers no DHT queries — the simulated network's DHT lives in the
fabric (:class:`~repro.simulation.network.SimulatedNetwork`) and the walks in
:mod:`repro.kademlia.dht`.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.ipfs.config import IpfsConfig
from repro.ipfs.peerstore import Peerstore
from repro.ipfs.swarm import Swarm
from repro.kademlia.dht import DHTMode
from repro.kademlia.routing_table import RoutingTable
from repro.libp2p.connection import CloseReason, Connection, Direction
from repro.libp2p.crypto import KeyPair, generate_keypair
from repro.libp2p.identify import IdentifyRecord
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId
from repro.libp2p.protocols import KAD_DHT

#: connection-manager tag used for peers in our DHT routing table
_KAD_TAG = "kad"
_KAD_TAG_VALUE = 5


class IpfsNode:
    """A behavioural stand-in for the go-ipfs reference client."""

    #: whether a peer that stops announcing ``/ipfs/kad/1.0.0`` loses its
    #: ``kad`` tag, as with go-ipfs; a hydra head keeps it.  A property of
    #: the client implementation, not a setting, so not an ``IpfsConfig`` field.
    untags_kad = True

    def __init__(
        self,
        config: Optional[IpfsConfig] = None,
        keypair: Optional[KeyPair] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.config = config or IpfsConfig.defaults()
        self.rng = rng or random.Random()
        self.keypair = keypair or generate_keypair(self.rng)
        self.peer_id = PeerId.from_keypair(self.keypair)
        self.peerstore = Peerstore()
        self.swarm = Swarm(self.peer_id, self.config.connmgr_config())
        #: the DHT-Servers identify has announced (go-libp2p tags these peers)
        self.routing_table = RoutingTable(self.peer_id)

    # -- identity / identify ----------------------------------------------------------

    @property
    def is_dht_server(self) -> bool:
        return self.config.dht_mode is DHTMode.SERVER

    # -- connection handling ------------------------------------------------------------

    def handle_inbound_connection(
        self, remote_peer: PeerId, remote_addr: Multiaddr, now: float
    ) -> Connection:
        """A remote peer dialled us; go-ipfs always accepts and trims later."""
        conn = self.swarm.open_connection(remote_peer, remote_addr, Direction.INBOUND, now)
        self.peerstore.set_connected(remote_peer, True, now, observed_addr=remote_addr)
        return conn

    def dial(self, remote_peer: PeerId, remote_addr: Multiaddr, now: float) -> Connection:
        """Open an outbound connection to a remote peer."""
        conn = self.swarm.open_connection(remote_peer, remote_addr, Direction.OUTBOUND, now)
        self.peerstore.set_connected(remote_peer, True, now, observed_addr=remote_addr)
        return conn

    def close_connection(self, conn: Connection, reason: CloseReason, now: float) -> None:
        self.swarm.close_connection(conn, reason, now)
        if not self.swarm.is_connected(conn.remote_peer):
            self.peerstore.set_connected(conn.remote_peer, False, now)

    # -- identify / peerstore -------------------------------------------------------------

    def receive_identify(self, remote_peer: PeerId, record: IdentifyRecord, now: float) -> None:
        """Process the identify (or identify-push) message of a remote peer.

        Besides updating the peerstore, the peer's DHT role is recorded:
        peers announcing ``/ipfs/kad/1.0.0`` enter the routing table and get a
        connection-manager tag (go-libp2p tags routing-table peers, which is
        what protects them from trimming); peers that stop announcing it are
        dropped again, and untagged where :attr:`untags_kad` — this is the
        mechanism behind the paper's observed DHT-Server↔Client role flips.
        """
        self.peerstore.record_identify(remote_peer, record, now)
        if KAD_DHT in record.protocols:
            self.routing_table.add_peer(remote_peer)
            self.swarm.tag_peer(remote_peer, _KAD_TAG, _KAD_TAG_VALUE)
        else:
            self.routing_table.remove_peer(remote_peer)
            if self.untags_kad:
                self.swarm.connmgr.untag_peer(remote_peer, _KAD_TAG)

    # -- periodic work --------------------------------------------------------------------------

    def tick(self, now: float) -> List[Connection]:
        """Periodic maintenance: run the connection manager's trim cycle."""
        return self.swarm.trim(now)

    # -- introspection ----------------------------------------------------------------------------

    def connection_count(self) -> int:
        return self.swarm.connection_count()

    def known_peer_count(self) -> int:
        return len(self.peerstore)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        mode = "server" if self.is_dht_server else "client"
        return (
            f"IpfsNode({self.peer_id.short()}, {mode}, "
            f"conns={self.connection_count()}, known={self.known_peer_count()})"
        )
