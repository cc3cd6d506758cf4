"""The passive measurement vantage point.

An :class:`IpfsNode` bundles identity, peerstore, its connections (with the
connection manager) and the routing table identify fills into the one
vantage-point class: the simulation deploys it as the paper's go-ipfs node,
and every hydra head is one too (:class:`~repro.hydra.head.HydraHead` only
picks its config).  It is passive, like the paper's clients: it accepts
connections, reads identify, tags DHT-Servers for the connection manager and
trims.  It issues and answers no DHT queries — the simulated network's DHT
lives in the fabric (:class:`~repro.simulation.network.SimulatedNetwork`) and
the walks in :mod:`repro.kademlia.dht`.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, List, Optional, Tuple

from repro.core.measurement import MeasurementRecorder
from repro.ipfs.config import IpfsConfig
from repro.ipfs.peerstore import Peerstore
from repro.kademlia.dht import DHTMode
from repro.kademlia.routing_table import RoutingTable
from repro.libp2p.connection import CloseReason, Direction
from repro.libp2p.connmgr import ConnectionManager
from repro.libp2p.crypto import KeyPair, generate_keypair
from repro.libp2p.identify import IdentifyRecord
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId
from repro.libp2p.protocols import KAD_DHT

#: connection-manager tag used for peers in our DHT routing table
_KAD_TAG = "kad"
_KAD_TAG_VALUE = 5


class IpfsNode:
    """A behavioural stand-in for the go-ipfs reference client.

    A connection is a row of the node's connection log
    (``recorder.log``), and its row index is its handle: the node opens,
    closes and trims connections by row.  The connection manager's table is
    the one record of which rows are open.
    """

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
        self.recorder = MeasurementRecorder()
        self.peerstore = Peerstore(self.recorder)
        self.connmgr = ConnectionManager(self.config.connmgr_config(), self.recorder.log.opened_at)
        #: where connection ids come from: this node's own sequence, until a
        #: SimulatedNetwork points every node it hosts at its shared one (ids
        #: are then unique fabric-wide and a run never depends on earlier runs)
        self.connection_ids: Iterator[int] = itertools.count(1)
        #: the DHT-Servers identify has announced (go-libp2p tags these peers)
        self.routing_table = RoutingTable(self.peer_id)

    # -- identity / identify ----------------------------------------------------------

    @property
    def is_dht_server(self) -> bool:
        return self.config.dht_mode is DHTMode.SERVER

    # -- connection handling ------------------------------------------------------------

    def handle_inbound_connection(
        self, remote_peer: PeerId, remote_addr: Multiaddr, now: float
    ) -> int:
        """A remote peer dialled us; go-ipfs always accepts and trims later."""
        return self._open(remote_peer, remote_addr, Direction.INBOUND, now)

    def dial(self, remote_peer: PeerId, remote_addr: Multiaddr, now: float) -> int:
        """Open an outbound connection to a remote peer."""
        return self._open(remote_peer, remote_addr, Direction.OUTBOUND, now)

    def _open(
        self, remote_peer: PeerId, remote_addr: Multiaddr, direction: Direction, now: float
    ) -> int:
        row = self.recorder.on_connected(
            remote_peer, direction, remote_addr, next(self.connection_ids), now
        )
        self.connmgr.add_connection(row, remote_peer)
        self.peerstore.set_connected(remote_peer, now, remote_addr)
        return row

    def close_connection(self, row: int, reason: CloseReason, now: float) -> None:
        """Close an open connection (KeyError unless ``row`` is open)."""
        remote_peer = self._close(row, reason, now)
        if not self.connmgr.is_connected(remote_peer):
            self.peerstore.touch(remote_peer, now)

    def _close(self, row: int, reason: CloseReason, now: float) -> PeerId:
        remote_peer = self.connmgr.remove_connection(row)
        self.recorder.on_disconnected(row, reason, now)
        return remote_peer

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
            self.connmgr.tag_peer(remote_peer, _KAD_TAG, _KAD_TAG_VALUE)
        else:
            self.routing_table.remove_peer(remote_peer)
            if self.untags_kad:
                self.connmgr.untag_peer(remote_peer, _KAD_TAG)

    # -- periodic work --------------------------------------------------------------------------

    def tick(self, now: float, force: bool = False) -> List[Tuple[int, PeerId]]:
        """Periodic maintenance: run the connection manager's trim cycle
        (``force`` as in :meth:`ConnectionManager.trim`) and close its
        victims; returns each victim's row and remote peer, in victim order."""
        return [
            (row, self._close(row, CloseReason.LOCAL_TRIM, now))
            for row in self.connmgr.trim(now, force)
        ]

    # -- introspection ----------------------------------------------------------------------------

    def connection_count(self) -> int:
        return self.connmgr.connection_count()

    def known_peer_count(self) -> int:
        return len(self.peerstore)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        mode = "server" if self.is_dht_server else "client"
        return (
            f"IpfsNode({self.peer_id.short()}, {mode}, "
            f"conns={self.connection_count()}, known={self.known_peer_count()})"
        )
