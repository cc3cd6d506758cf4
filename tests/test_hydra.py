"""Tests for the hydra-booster model."""

import random

import pytest

from repro.hydra.head import HydraHead
from repro.hydra.hydra import HydraNode
from repro.libp2p.connection import CloseReason
from repro.libp2p.identify import IdentifyRecord
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId
from repro.libp2p.protocols import IPFS_ID, KAD_DHT


class TestHydraHead:
    def test_heads_have_distinct_identities_and_ports(self):
        rng = random.Random(2)
        heads = [HydraHead(i, rng=rng) for i in range(3)]
        assert len({h.peer_id for h in heads}) == 3
        assert [h.port for h in heads] == [3001, 3002, 3003]

    def test_head_connection_lifecycle(self, rng):
        head = HydraHead(0, rng=random.Random(3), low_water=2, high_water=3)
        remote = PeerId.random(rng)
        conn = head.handle_inbound_connection(remote, Multiaddr.tcp("5.5.5.5"), 0.0)
        assert head.connection_count() == 1
        head.close_connection(conn, CloseReason.REMOTE_LEFT, 1.0)
        assert head.connection_count() == 0
        assert not head.peerstore.get(remote).connected

    def test_head_identify_updates_routing_table(self, rng):
        head = HydraHead(0, rng=random.Random(4))
        remote = PeerId.random(rng)
        head.handle_inbound_connection(remote, Multiaddr.tcp("5.5.5.5"), 0.0)
        head.receive_identify(
            remote, IdentifyRecord.make("go-ipfs/0.11.0", {IPFS_ID, KAD_DHT}), 1.0
        )
        assert remote in head.routing_table

    def test_head_trim_with_small_watermarks(self, rng):
        head = HydraHead(0, rng=random.Random(5), low_water=2, high_water=3)
        head.swarm.connmgr.config = head.swarm.connmgr.config.__class__(
            low_water=2, high_water=3, grace_period=0.0, silence_period=0.0
        )
        for _ in range(6):
            head.handle_inbound_connection(PeerId.random(rng), Multiaddr.tcp("5.5.5.5"), 0.0)
        assert len(head.tick(now=100.0)) == 4


class TestHydraNode:
    def test_requires_at_least_one_head(self):
        with pytest.raises(ValueError):
            HydraNode(0)

    def test_union_of_heads(self, rng):
        hydra = HydraNode(2, rng=random.Random(6))
        a, b = PeerId.random(rng), PeerId.random(rng)
        hydra.head(0).handle_inbound_connection(a, Multiaddr.tcp("1.1.1.1"), 0.0)
        hydra.head(1).handle_inbound_connection(b, Multiaddr.tcp("2.2.2.2"), 0.0)
        hydra.head(1).handle_inbound_connection(a, Multiaddr.tcp("1.1.1.1"), 0.0)
        # each head keeps its own peerstore and swarm; together they see both
        assert set(hydra.head(0).peerstore.peers()) == {a}
        assert set().union(*(head.peerstore.peers() for head in hydra.heads)) == {a, b}
        assert sum(head.connection_count() for head in hydra.heads) == 3

    def test_union_dht_servers(self, rng):
        hydra = HydraNode(2, rng=random.Random(7))
        server = PeerId.random(rng)
        hydra.head(0).receive_identify(
            server, IdentifyRecord.make("go-ipfs/0.11.0", {IPFS_ID, KAD_DHT}), 0.0
        )
        assert server in hydra.head(0).routing_table
        assert server not in hydra.head(1).routing_table
        assert hydra.head(0).peerstore.dht_servers() == [server]

    def test_custom_watermarks_propagate(self):
        hydra = HydraNode(2, rng=random.Random(10), low_water=7, high_water=9)
        for head in hydra.heads:
            assert head.swarm.connmgr.config.low_water == 7
            assert head.swarm.connmgr.config.high_water == 9
