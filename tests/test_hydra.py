"""Tests for the hydra-booster model: a head is an IpfsNode with hydra's config."""

import random

from repro.hydra.head import HydraHead
from repro.ipfs.config import IpfsConfig
from repro.ipfs.node import IpfsNode
from repro.libp2p.connection import CloseReason
from repro.libp2p.identify import IdentifyRecord
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId
from repro.libp2p.protocols import IPFS_ID, KAD_DHT


class TestHydraHead:
    def test_heads_have_distinct_identities(self):
        rng = random.Random(2)
        heads = [HydraHead(rng) for _ in range(3)]
        assert len({h.peer_id for h in heads}) == 3

    def test_head_is_a_server_node_with_hydra_config(self):
        head = HydraHead(random.Random(2))
        assert isinstance(head, IpfsNode) and head.is_dht_server
        assert head.config == IpfsConfig(low_water=15_000, high_water=20_000, poll_interval=60.0)
        assert head.connmgr.config == head.config.connmgr_config()
        # the only code a head has is its constructor and the untag switch
        own = {name for name, value in vars(HydraHead).items() if callable(value)}
        own |= {name for name in vars(HydraHead) if not name.startswith("__")}
        assert own == {"__init__", "untags_kad"}

    def test_head_connection_lifecycle(self, rng):
        head = HydraHead(random.Random(3), low_water=2, high_water=3)
        remote = PeerId.random(rng)
        conn = head.handle_inbound_connection(remote, Multiaddr.tcp("5.5.5.5"), 0.0)
        assert head.connection_count() == 1
        head.close_connection(conn, CloseReason.REMOTE_LEFT, 1.0)
        assert head.connection_count() == 0

    def test_head_identify_updates_routing_table(self, rng):
        head = HydraHead(random.Random(4))
        remote = PeerId.random(rng)
        head.handle_inbound_connection(remote, Multiaddr.tcp("5.5.5.5"), 0.0)
        head.receive_identify(
            remote, IdentifyRecord.make("go-ipfs/0.11.0", {IPFS_ID, KAD_DHT}), 1.0
        )
        assert remote in head.routing_table

    def test_head_keeps_kad_tag_when_peer_stops_announcing(self, rng):
        """The one behaviour a head does not share with the go-ipfs node."""
        remote = PeerId.random(rng)
        server = IdentifyRecord.make("go-ipfs/0.11.0", {IPFS_ID, KAD_DHT})
        client = IdentifyRecord.make("go-ipfs/0.11.0", {IPFS_ID})
        tags = {}
        for node in (HydraHead(random.Random(8)), IpfsNode(rng=random.Random(9))):
            node.receive_identify(remote, server, 0.0)
            node.receive_identify(remote, client, 1.0)
            assert remote not in node.routing_table
            tags[type(node)] = node.connmgr._tags[remote]
        assert tags == {HydraHead: {"kad": 5}, IpfsNode: {}}

    def test_head_trim_with_small_watermarks(self, rng):
        head = HydraHead(random.Random(5), low_water=2, high_water=3)
        for _ in range(6):
            head.handle_inbound_connection(PeerId.random(rng), Multiaddr.tcp("5.5.5.5"), 0.0)
        assert len(head.tick(now=100.0)) == 4


class TestHydraNode:
    """A hydra is its list of heads, drawing keys in turn from one generator."""

    def test_union_of_heads(self, rng):
        heads = [HydraHead(random.Random(6)) for _ in range(2)]
        a, b = PeerId.random(rng), PeerId.random(rng)
        heads[0].handle_inbound_connection(a, Multiaddr.tcp("1.1.1.1"), 0.0)
        heads[1].handle_inbound_connection(b, Multiaddr.tcp("2.2.2.2"), 0.0)
        heads[1].handle_inbound_connection(a, Multiaddr.tcp("1.1.1.1"), 0.0)
        # each head keeps its own peerstore and connections; together they see both
        assert {entry.peer for entry in heads[0].peerstore.entries()} == {a}
        assert {entry.peer for head in heads for entry in head.peerstore.entries()} == {a, b}
        assert sum(head.connection_count() for head in heads) == 3

    def test_union_dht_servers(self, rng):
        shared = random.Random(7)
        heads = [HydraHead(shared) for _ in range(2)]
        server = PeerId.random(rng)
        heads[0].receive_identify(
            server, IdentifyRecord.make("go-ipfs/0.11.0", {IPFS_ID, KAD_DHT}), 0.0
        )
        assert server in heads[0].routing_table
        assert server not in heads[1].routing_table
        assert KAD_DHT in heads[0].peerstore.get(server).protocols
        assert heads[1].peerstore.get(server) is None

    def test_custom_watermarks_propagate(self):
        shared = random.Random(10)
        for head in [HydraHead(shared, low_water=7, high_water=9) for _ in range(2)]:
            assert head.connmgr.config.low_water == 7
            assert head.connmgr.config.high_water == 9
