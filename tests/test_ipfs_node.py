"""Tests for the go-ipfs node composition."""

import random

import pytest

from repro.ipfs.config import IpfsConfig
from repro.ipfs.node import IpfsNode
from repro.kademlia.dht import DHTMode
from repro.libp2p.connection import CloseReason
from repro.libp2p.identify import IdentifyRecord
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId
from repro.libp2p.protocols import IPFS_ID, KAD_DHT
from repro.simulation.churn_models import HOUR
from repro.simulation.engine import Engine
from repro.simulation.network import MeasurementIdentity, SimulatedNetwork
from repro.simulation.population import PopulationConfig, generate_population


def make_node(low=5, high=8, mode=DHTMode.SERVER):
    config = IpfsConfig(low_water=low, high_water=high, dht_mode=mode)
    return IpfsNode(config=config, rng=random.Random(1))


def identify(server=True, agent="go-ipfs/0.11.0/abc"):
    protocols = {IPFS_ID}
    if server:
        protocols.add(KAD_DHT)
    return IdentifyRecord.make(agent, protocols)


class TestIpfsNode:
    def test_identity_is_stable(self):
        node = make_node()
        assert node.peer_id == PeerId.from_keypair(node.keypair)

    def test_own_identify_record_reflects_mode(self):
        server = make_node(mode=DHTMode.SERVER)
        client = make_node(mode=DHTMode.CLIENT)
        assert server.is_dht_server
        assert not client.is_dht_server

    def test_inbound_connection_updates_peerstore(self, rng):
        node = make_node()
        remote = PeerId.random(rng)
        node.handle_inbound_connection(remote, Multiaddr.tcp("3.3.3.3"), now=10.0)
        assert node.connection_count() == 1
        entry = node.peerstore.get(remote)
        assert entry.observed_addr.ip() == "3.3.3.3"

    def test_connection_is_a_row_of_the_log(self, rng):
        node = make_node()
        remote = PeerId.random(rng)
        row = node.handle_inbound_connection(remote, Multiaddr.tcp("3.3.3.3"), 2.0)
        assert node.dial(remote, Multiaddr.tcp("3.3.3.3"), 3.0) == row + 1
        log = node.recorder.log
        assert (log.peer[row], log.opened_at[row], list(log.connection_id)) == (
            str(remote), 2.0, [1, 2]
        )
        node.close_connection(row, CloseReason.REMOTE_TRIM, 7.0)
        record = log[row]
        assert (record.direction, record.closed_at, record.close_reason) == (
            "inbound", 7.0, "remote-trim"
        )

    def test_connection_count_and_is_connected(self, rng):
        node = make_node(low=5, high=10)
        inbound, outbound = PeerId.random(rng), PeerId.random(rng)
        row = node.handle_inbound_connection(inbound, Multiaddr.tcp("3.3.3.3"), 0.0)
        node.dial(outbound, Multiaddr.tcp("4.4.4.4"), 1.0)
        assert node.connection_count() == 2
        assert node.connmgr.is_connected(inbound) and node.connmgr.is_connected(outbound)
        node.close_connection(row, CloseReason.REMOTE_LEFT, 2.0)
        assert node.connection_count() == 1
        assert not node.connmgr.is_connected(inbound)
        assert node.connmgr.is_connected(outbound)

    def test_last_close_touches_the_peer(self, rng):
        node = make_node()
        remote = PeerId.random(rng)
        first = node.handle_inbound_connection(remote, Multiaddr.tcp("3.3.3.3"), 0.0)
        second = node.dial(remote, Multiaddr.tcp("3.3.3.3"), 1.0)
        node.close_connection(first, CloseReason.REMOTE_LEFT, 5.0)
        assert node.peerstore.get(remote).last_seen == 1.0
        node.close_connection(second, CloseReason.REMOTE_LEFT, 6.0)
        assert node.peerstore.get(remote).last_seen == 6.0
        assert node.connection_count() == 0

    def test_close_of_a_row_not_open_rejected(self, rng):
        node = make_node()
        row = node.handle_inbound_connection(PeerId.random(rng), Multiaddr.tcp("3.3.3.3"), 0.0)
        node.close_connection(row, CloseReason.ERROR, 1.0)
        with pytest.raises(KeyError):
            node.close_connection(row, CloseReason.ERROR, 2.0)

    def test_identify_of_server_enters_routing_table_and_tags(self, rng):
        node = make_node()
        remote = PeerId.random(rng)
        node.handle_inbound_connection(remote, Multiaddr.tcp("2.2.2.2"), 0.0)
        node.receive_identify(remote, identify(server=True), 1.0)
        assert remote in node.routing_table
        assert node.connmgr._tags[remote]

    def test_identify_role_flip_removes_from_routing_table(self, rng):
        node = make_node()
        remote = PeerId.random(rng)
        node.handle_inbound_connection(remote, Multiaddr.tcp("2.2.2.2"), 0.0)
        node.receive_identify(remote, identify(server=True), 1.0)
        node.receive_identify(remote, identify(server=False), 2.0)
        assert remote not in node.routing_table
        assert node.connmgr._tags[remote] == {}

    def test_tick_trims_above_high_water(self, rng):
        node = make_node(low=3, high=5)
        for _ in range(8):
            node.handle_inbound_connection(PeerId.random(rng), Multiaddr.tcp("1.1.1.1"), 0.0)
        victims = node.tick(now=120.0)
        assert len(victims) == 5
        assert node.connection_count() == 3
        log = node.recorder.log
        assert {log[row].close_reason for row, _ in victims} == {"local-trim"}
        assert [str(peer) for _, peer in victims] == [log.peer[row] for row, _ in victims]

    def test_tick_below_high_water_is_noop(self, rng):
        node = make_node(low=2, high=10)
        for _ in range(5):
            node.handle_inbound_connection(PeerId.random(rng), Multiaddr.tcp("1.1.1.1"), 0.0)
        assert node.tick(now=50.0) == []
        assert node.connection_count() == 5

    def test_handle_find_node_respects_mode(self):
        # The simulated network answers the DHT; the node's mode decides
        # whether it is deployed there as a DHT-Server (with the servers
        # closest to it as its neighbourhood) or as a DHT-Client (none).
        population = generate_population(PopulationConfig(n_peers=120, seed=5), random.Random(5))
        network = SimulatedNetwork(Engine(), population, random.Random(6))
        for seed, mode in enumerate((DHTMode.SERVER, DHTMode.CLIENT)):
            node = IpfsNode(IpfsConfig(dht_mode=mode), rng=random.Random(seed))
            network.add_measurement_identity(MeasurementIdentity(mode.name, node))
        network.start(duration=HOUR)
        server, client = network.identities
        assert server.is_dht_server and server.neighborhood
        assert not client.is_dht_server and client.neighborhood == set()

    def test_known_peer_count_accumulates(self, rng):
        node = make_node(low=1, high=2)
        for i in range(6):
            conn = node.handle_inbound_connection(
                PeerId.random(rng), Multiaddr.tcp("1.1.1.1"), float(i)
            )
            node.close_connection(conn, CloseReason.REMOTE_LEFT, float(i) + 0.5)
        # the peerstore remembers peers even after they disconnect
        assert node.known_peer_count() == 6
        assert node.connection_count() == 0
