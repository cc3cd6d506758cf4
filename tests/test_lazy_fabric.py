"""The lazily built fabric against the eager construction it replaced.

A simulated peer draws its two private listen IPs at construction, in the
stream's order, and builds its advertised addresses and its dial address on
first read; a DHT-Server keeps its routing-table sample as indices into one
shared list of the server PIDs.  The eager bodies live on here as references:
``addresses_for_peer`` (which built every ``Multiaddr`` up front), the dial
address builder, and ``random.sample`` over the PID list.  Over every peer of
a 2 000-peer ``p2`` fabric the lazy values must equal the references' and
leave the RNG where they left it.  The memory pins hold the point of it: no
peer address alive after construction, built addresses only on peers that
were dialled or identified, 4 bytes per seed entry, and no engine entry past
the end of the run.
"""

from __future__ import annotations

import gc
import random
import sys
from array import array
from typing import List, Tuple

import pytest

from repro.kademlia.routing_table import RoutingTable
from repro.libp2p.multiaddr import Multiaddr, random_private_ipv4
from repro.libp2p.peer_id import PeerId
from repro.scenarios.registry import build_scenario_config
from repro.simulation.network import SimPeer
from repro.simulation.scenario import Scenario

PEERS = 2_000
DAYS = 0.01
SEED = 7

# -- references: the eager construction the fabric replaced ----------------------------


def addresses_for_peer(
    public_ip: str,
    rng: random.Random,
    behind_nat: bool = False,
    port: int = 4001,
    include_quic: bool = True,
) -> Tuple[Multiaddr, ...]:
    """Build a plausible advertised address list for a peer, every address
    at once (what each ``SimPeer`` did at construction)."""
    addrs: List[Multiaddr] = [Multiaddr.tcp(random_private_ipv4(rng), port)]
    if include_quic:
        addrs.append(Multiaddr.quic(random_private_ipv4(rng), port))
    if not behind_nat:
        addrs.append(Multiaddr.tcp(public_ip, port))
        if include_quic:
            addrs.append(Multiaddr.quic(public_ip, port))
    return tuple(addrs)


def reference_dial_addr(profile) -> Multiaddr:
    """The observed dial address, built at construction."""
    return Multiaddr.tcp(profile.public_ip, port=4001 + (profile.peer_index % 1000))


def _scenario() -> Scenario:
    return Scenario(build_scenario_config("p2", n_peers=PEERS, duration_days=DAYS, seed=SEED))


# -- equivalence -------------------------------------------------------------------------


class TestLazyMatchesEager:
    @pytest.fixture(scope="class")
    def built(self):
        """A fabric right after construction and a replay of the eager one."""
        scenario = _scenario()
        rng = random.Random(SEED + 20)  # the network's stream (Scenario._build)
        eager = []
        for profile in scenario.population:
            pid = PeerId.random(rng)
            addrs = addresses_for_peer(profile.public_ip, rng, behind_nat=profile.behind_nat)
            eager.append((pid, addrs, reference_dial_addr(profile)))
        return scenario, eager, rng

    def test_construction_leaves_the_rng_where_the_eager_fabric_did(self, built):
        scenario, _, rng = built
        assert scenario.network.rng.getstate() == rng.getstate()

    def test_addresses_and_dial_addresses_equal_the_eager_ones(self, built):
        scenario, eager, _ = built
        peers = scenario.network.peers
        assert len(peers) == len(eager) == PEERS
        for peer, (pid, addrs, dial) in zip(peers, eager):
            assert peer.current_pid == pid
            assert peer.addrs == addrs
            assert peer.addrs is peer.addrs  # built once
            assert peer.dial_addr() == dial
            assert peer.dial_addr() is peer.dial_addr()
        assert any(peer.profile.behind_nat for peer in peers)
        assert any(not peer.profile.behind_nat for peer in peers)

    def test_table_seeds_are_the_eager_samples(self):
        scenario = _scenario()
        network = scenario.network
        replay = random.Random()
        replay.setstate(network.rng.getstate())
        network.start(scenario.config.duration)
        servers = [peer for peer in network.peers if peer.profile.is_dht_server]
        server_pids = [peer.current_pid for peer in servers]
        size = network.config.routing_table_sample
        assert len(servers) > size
        samples = [replay.sample(server_pids, size) for _ in servers]
        for peer, expected in zip(servers, samples):
            assert [peer._table_pool[i] for i in peer._table_seed] == expected
        for peer, expected in zip(servers[:20], samples):
            reference = RoutingTable(peer.current_pid)
            reference.add_peers(expected)
            assert peer.routing_table.all_peers() == reference.all_peers()


# -- memory pins ---------------------------------------------------------------------------


def _peer_multiaddrs_alive(peers) -> int:
    ips = set()
    for peer in peers:
        ips.add(peer.profile.public_ip)
        ips.update(peer._private_ips)
    return sum(1 for obj in gc.get_objects() if type(obj) is Multiaddr and obj.ip() in ips)


class TestOnlyWhatIsRead:
    def test_construction_builds_no_peer_address(self):
        scenario = _scenario()
        peers = scenario.network.peers
        assert all(peer._addrs is None and peer._dial_addr is None for peer in peers)
        assert _peer_multiaddrs_alive(peers) == 0

    def test_a_run_builds_addresses_only_for_peers_it_reads(self, monkeypatch):
        read = set()
        real_dial, real_identify = SimPeer.dial_addr, SimPeer.identify_record

        def dial_addr(peer):
            read.add(id(peer))
            return real_dial(peer)

        def identify_record(peer):
            read.add(id(peer))
            return real_identify(peer)

        monkeypatch.setattr(SimPeer, "dial_addr", dial_addr)
        monkeypatch.setattr(SimPeer, "identify_record", identify_record)
        scenario = _scenario()
        scenario.run()
        peers = scenario.network.peers
        built = {id(p) for p in peers if p._addrs is not None or p._dial_addr is not None}
        assert built and built <= read
        assert len(built) < len(peers) / 2

    def test_a_table_seed_costs_at_most_four_bytes_per_entry(self):
        scenario = _scenario()
        network = scenario.network
        network.start(scenario.config.duration)
        servers = [peer for peer in network.peers if peer.profile.is_dht_server]
        empty = sys.getsizeof(array("I"))
        pools = {id(peer._table_pool) for peer in servers}
        assert len(pools) == 1
        for peer in servers:
            seed = peer._table_seed
            assert len(seed) == network.config.routing_table_sample
            assert sys.getsizeof(seed) - empty <= 4 * len(seed)

    def test_no_engine_entry_ever_lies_past_the_end(self):
        scenario = _scenario()
        engine = scenario.engine
        end = scenario.config.duration
        checks = []

        def check(now, processed, pending):
            latest = max((entry[0] for entry in engine._heap), default=0.0)
            assert latest <= end
            checks.append(pending - len(engine._heap))

        engine.set_progress(check, every=100)
        scenario.run()
        # the never-due events are counted in pending() all the same
        assert len(checks) > 5 and max(checks) > 0
