"""Tests for the simulated network fabric and the scenario wiring."""

import gc
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.attackers import QueryDropper
from repro.adversary.behaviors import AttackStats
from repro.core.churn import connection_statistics
from repro.hydra.head import HydraHead
from repro.ipfs.config import IpfsConfig
from repro.libp2p.connmgr import ConnectionManager
from repro.kademlia.dht import DHTMode
from repro.kademlia.routing_table import RoutingTable
from repro.simulation.churn_models import HOUR
from repro.netmodel.config import PUBLIC, NetModelConfig
from repro.obs.config import ObsConfig
from repro.obs.spans import TraceConfig
from repro.scenarios.registry import build_scenario_config, scenario_names
from repro.simulation.engine import Engine, PeriodicTask
from repro.simulation.fabric import FabricRuntime
from repro.simulation import scenario as scenario_module
from repro.simulation.config import NetworkConfig, ScenarioConfig
from repro.simulation.network import MeasurementIdentity, SimPeer, SimulatedNetwork
from repro.simulation.population import PopulationConfig, generate_population
from repro.simulation.scenario import Scenario
from repro.ipfs.node import IpfsNode


def build_network(n_peers=120, seed=5, go_ipfs_config=None):
    engine = Engine()
    population = generate_population(
        PopulationConfig(n_peers=n_peers, seed=seed), random.Random(seed)
    )
    network = SimulatedNetwork(engine, population, random.Random(seed + 1))
    node = IpfsNode(
        go_ipfs_config or IpfsConfig(low_water=50, high_water=80),
        rng=random.Random(seed + 2),
    )
    identity = MeasurementIdentity("go-ipfs", node)
    network.add_measurement_identity(identity)
    return engine, network, identity


class TestNetworkLifecycle:
    def test_peers_connect_and_dataset_is_produced(self):
        engine, network, identity = build_network()
        network.start(duration=2 * HOUR)
        engine.run_until(2 * HOUR)
        dataset = identity.measurement.finalize(2 * HOUR)
        assert dataset.pid_count() > 10
        assert dataset.connection_count() > 10
        assert dataset.snapshots

    def test_identities_cannot_be_added_after_start(self):
        engine, network, identity = build_network()
        network.start(duration=HOUR)
        with pytest.raises(RuntimeError):
            network.add_measurement_identity(identity)

    def test_start_twice_rejected(self):
        engine, network, _ = build_network()
        network.start(duration=HOUR)
        with pytest.raises(RuntimeError):
            network.start(duration=HOUR)

    def test_connection_close_reasons_are_plausible(self):
        engine, network, identity = build_network()
        network.start(duration=3 * HOUR)
        engine.run_until(3 * HOUR)
        dataset = identity.measurement.finalize(3 * HOUR)
        reasons = {c.close_reason for c in dataset.connections}
        # remote trimming must be present; invalid reasons must not appear
        assert "remote-trim" in reasons
        valid = {
            "remote-trim", "remote-left", "local-trim", "protocol-done",
            "still-open", "error",
        }
        assert reasons <= valid

    def test_dht_query_answers_only_online_servers(self):
        engine, network, identity = build_network()
        network.start(duration=HOUR)
        engine.run_until(HOUR)
        online_server = next(
            (p for p in network.peers if p.online and p.is_dht_server), None
        )
        offline_peer = next((p for p in network.peers if not p.online), None)
        assert online_server is not None
        reply = network.dht_query(online_server.current_pid, target=0, count=10)
        assert reply is not None
        if offline_peer is not None:
            assert network.dht_query(offline_peer.current_pid, 0, 10) is None

    def test_vantage_points_answer_no_dht_rpc(self):
        # Passive even in DHT-Server mode: the fabric serves its own peers,
        # never a vantage point, so no walk can reach one.
        engine, network, identity = build_network()
        network.start(duration=HOUR)
        engine.run_until(HOUR)
        assert identity.is_dht_server and len(identity.node.recorder.log) > 0
        pid = identity.peer_id
        assert pid not in network.peers_by_pid
        assert network.dht_query(pid, 0, 10) is None
        assert network.add_provider(pid, 1, pid, ttl=60.0) is None
        assert network.get_providers(pid, 1) is None

    def test_bootstrap_peers_are_servers(self):
        engine, network, _ = build_network()
        network.start(duration=HOUR)
        bootstrap = network.bootstrap_peers()
        assert bootstrap
        by_pid = network.peers_by_pid
        assert all(by_pid[pid].profile.is_dht_server for pid in bootstrap)

    def test_online_counts(self):
        engine, network, _ = build_network()
        network.start(duration=HOUR)
        engine.run_until(HOUR)
        assert 0 < network.online_count() <= len(network.peers)
        assert network.online_server_count() <= network.online_count()

    def test_peer_connection_entries_are_exactly_the_open_rows(self):
        # SimPeer.connections and each node's connection manager both record
        # which rows are open; every open and close path must keep them equal.
        engine, network, server = build_network(
            n_peers=150, go_ipfs_config=IpfsConfig(low_water=10, high_water=20)
        )
        client = MeasurementIdentity(
            "client", IpfsNode(IpfsConfig(dht_mode=DHTMode.CLIENT), rng=random.Random(9))
        )
        network.add_measurement_identity(client)
        network.start(duration=6 * HOUR)
        for step in range(1, 13):
            engine.run_until(step * HOUR / 2)
            for identity in (server, client):
                log = identity.node.recorder.log
                entries = {
                    peer.connections[identity.label]: peer.current_pid
                    for peer in network.peers
                    if identity.label in peer.connections
                }
                assert entries == identity.node.connmgr._open
                assert all(math.isnan(log.closed_at[row]) for row in entries)
                assert sum(math.isnan(t) for t in log.closed_at) == len(entries)
        assert server.node.recorder.log.closes("local-trim") > 0
        assert sum(len(p.all_pids) for p in network.peers) > len(network.peers)

    def test_sever_connections_closes_every_row_as_remote_left(self):
        engine, network, server = build_network()
        client = MeasurementIdentity(
            "client", IpfsNode(IpfsConfig(dht_mode=DHTMode.CLIENT), rng=random.Random(9))
        )
        network.add_measurement_identity(client)
        network.start(duration=2 * HOUR)
        engine.run_until(2 * HOUR)
        peer = max(network.online_peers(), key=lambda p: len(p.connections))
        rows = dict(peer.connections)
        assert rows
        assert network.sever_connections(peer) == len(rows)
        assert peer.connections == {}
        assert peer.online
        for label, row in rows.items():
            node = network._identities_by_label[label].node
            assert row not in node.connmgr._open
            record = node.recorder.log[row]
            assert (record.closed_at, record.close_reason) == (2 * HOUR, "remote-left")
        assert network.sever_connections(peer) == 0

    def test_pid_rotation_produces_extra_pids(self):
        engine, network, identity = build_network(n_peers=150)
        network.start(duration=6 * HOUR)
        engine.run_until(6 * HOUR)
        assert sum(len(p.all_pids) for p in network.peers) > len(network.peers)


class TestRenderingTable:
    """A fabric renders each PID once, in one table its vantage points'
    recorders share; two fabrics in one process share nothing."""

    @staticmethod
    def run_two_vantage_points():
        engine, network, go_ipfs = build_network(n_peers=150)
        head = MeasurementIdentity("hydra-0", HydraHead(random.Random(9)))
        network.add_measurement_identity(head)
        network.start(duration=2 * HOUR)
        engine.run_until(2 * HOUR)
        return network, [go_ipfs, head]

    def test_two_fabrics_share_no_rendering_table(self):
        runs = [self.run_two_vantage_points() for _ in range(2)]
        (network_a, identities_a), (network_b, _) = runs
        assert network_a.pid_names is not network_b.pid_names
        # same seeds, so the same PIDs, each rendered by each fabric
        assert network_a.pid_names == network_b.pid_names
        assert all(
            name is not network_b.pid_names[pid] for pid, name in network_a.pid_names.items()
        )
        table_ids = {id(name) for name in network_a.pid_names.values()}
        for identity in identities_a:
            recorder = identity.node.recorder
            assert recorder.pid_names is network_a.pid_names
            assert recorder.log.peer and {id(name) for name in recorder.log.peer} <= table_ids
        for pid, name in network_a.pid_names.items():
            assert name == str(pid)


def _reference_build_routing_tables(network):
    """The per-peer seeding loop ``_build_routing_tables`` had before it went
    through ``RoutingTable.add_peers`` and before tables were built on first
    read: ``peer_index -> table`` for every DHT-Server."""
    server_peers = [p for p in network.peers if p.profile.is_dht_server]
    server_pids = [p.current_pid for p in server_peers]
    sample_size = min(network.config.routing_table_sample, max(0, len(server_pids) - 1))
    tables = {}
    for peer in server_peers:
        table = RoutingTable(peer.current_pid)
        if sample_size:
            for pid in network.rng.sample(server_pids, sample_size):
                if pid != peer.current_pid:
                    table.add_peer(pid)
        tables[peer.profile.peer_index] = table
    return tables


class TestRoutingTableSeeding:
    # 120 peers: fewer servers than the sample size, so nearly every sample
    # holds the table's own peer; 900 peers: full samples that overfill the
    # far buckets.
    @pytest.mark.parametrize("n_peers", [120, 900])
    def test_bulk_seeding_matches_the_per_peer_loop(self, n_peers):
        _, bulk, _ = build_network(n_peers=n_peers)
        _, reference, _ = build_network(n_peers=n_peers)
        bulk._build_routing_tables()
        tables = _reference_build_routing_tables(reference)
        assert bulk.rng.getstate() == reference.rng.getstate()
        seeded = 0
        for peer in bulk.peers:
            expected = tables.get(peer.profile.peer_index)
            if expected is None:
                assert peer.routing_table is None
                continue
            seeded += 1
            table = peer.routing_table
            assert table.local_peer == expected.local_peer
            assert sorted(table._buckets) == sorted(expected._buckets)
            for index in sorted(expected._buckets):
                assert table._buckets[index].peers == expected._buckets[index].peers
        assert seeded > 10

    def test_start_makes_no_per_peer_inserts(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            RoutingTable, "add_peer", lambda self, peer: calls.append(peer) or False
        )
        _, network, _ = build_network(n_peers=300)
        network.start(duration=HOUR)
        assert any(len(p.routing_table) for p in network.peers if p.routing_table)
        assert calls == []

    def test_rotating_before_the_first_read_gives_an_empty_table(self):
        _, network, _ = build_network(n_peers=300)
        network.start(duration=HOUR)
        servers = [p for p in network.peers if p.profile.is_dht_server]
        rotated, kept = servers[0], servers[1]
        old_pid = rotated.current_pid
        rotated.rotate_pid()
        assert rotated.current_pid != old_pid
        table = rotated.routing_table
        assert table.local_peer == rotated.current_pid and len(table) == 0
        assert len(kept.routing_table) > 0

    def test_a_run_without_find_node_builds_no_table(self, monkeypatch):
        queries = []
        real = SimulatedNetwork.honest_find_node
        monkeypatch.setattr(
            SimulatedNetwork,
            "honest_find_node",
            lambda network, *args: queries.append(args) or real(network, *args),
        )
        scenario = Scenario(build_scenario_config("p2", n_peers=300, duration_days=0.02, seed=7))
        result = scenario.run()
        assert result.events_processed > 0 and queries == []
        peers = scenario.network.peers
        assert sum(p._table_seed is not None for p in peers) > 10
        assert all(p._routing_table is None for p in peers)


class TestNeighborhoods:
    """``start()`` gives every DHT-Server vantage point the servers closest to
    it by exact integer XOR distance, and a DHT-Client vantage point none."""

    @staticmethod
    def started(n_peers, neighborhood_size, servers=True):
        engine = Engine()
        population = generate_population(
            PopulationConfig(n_peers=n_peers, seed=5), random.Random(5)
        )
        if not servers:
            for profile in population.profiles:
                profile.role = DHTMode.CLIENT
        network = SimulatedNetwork(
            engine,
            population,
            random.Random(6),
            NetworkConfig(neighborhood_size=neighborhood_size),
        )
        for seed, (label, is_server) in enumerate(
            [("server-a", True), ("server-b", True), ("client", False)]
        ):
            mode = DHTMode.SERVER if is_server else DHTMode.CLIENT
            config = IpfsConfig(low_water=50, high_water=80, dht_mode=mode)
            node = IpfsNode(config, rng=random.Random(seed))
            network.add_measurement_identity(MeasurementIdentity(label, node))
        network.start(duration=HOUR)
        return network

    # 400 peers: many more servers than the neighbourhood; 40 peers with a
    # size of 500: the whole server population is the neighbourhood.
    @pytest.mark.parametrize("n_peers, size", [(400, 30), (400, 1), (40, 500)])
    def test_server_identities_get_the_closest_servers(self, n_peers, size):
        network = self.started(n_peers, size)
        server_pids = [p.current_pid for p in network.peers if p.profile.is_dht_server]
        assert server_pids
        for identity in network.identities[:2]:
            target = identity.peer_id.kad_key()
            reference = sorted(server_pids, key=lambda pid: pid.kad_key() ^ target)[:size]
            assert identity.neighborhood == set(reference)
            assert len(identity.neighborhood) == min(size, len(server_pids))
        if size < len(server_pids):  # the target matters, not just the candidate set
            assert network.identities[0].neighborhood != network.identities[1].neighborhood

    def test_client_identity_gets_none(self):
        assert self.started(400, 30).identities[2].neighborhood == set()

    def test_population_without_servers_gives_empty_neighborhoods(self):
        network = self.started(60, 30, servers=False)
        assert not any(p.profile.is_dht_server for p in network.peers)
        assert [identity.neighborhood for identity in network.identities] == [set()] * 3


class TestRpcDispatch:
    """The single veto ladder behind dht_query / add_provider / get_providers."""

    @staticmethod
    def fabric(**population_kwargs):
        population = generate_population(
            PopulationConfig(n_peers=60, seed=5, **population_kwargs), random.Random(5)
        )
        network = SimulatedNetwork(Engine(), population, random.Random(6))
        server = next(
            p
            for p in network.peers
            if p.profile.is_dht_server and (p.net is None or p.net.reachability == PUBLIC)
        )
        server.online = True
        return network, server

    #: each RPC called directly (no clock, vantage-point source) and through
    #: its walk binder (clock + source peer)
    RPCS = {
        "find_node": (
            lambda net, pid: net.dht_query(pid, 0, 20),
            lambda net, pid, clock, src: net.timed_query_fn(clock, src=src)(pid, 0, 20),
        ),
        "add_provider": (
            lambda net, pid: net.add_provider(pid, 1, pid, 60.0),
            lambda net, pid, clock, src: net.timed_add_provider_fn(clock, 60.0, src=src)(
                pid, 1, pid
            ),
        ),
        "get_providers": (
            lambda net, pid: net.get_providers(pid, 1),
            lambda net, pid, clock, src: net.timed_get_providers_fn(clock, src=src)(pid, 1),
        ),
    }

    @pytest.mark.parametrize("kind", sorted(RPCS))
    def test_runtime_overriding_only_on_rpc_sees_clocked_and_unclocked_rpcs(self, kind):
        class Vetoer(FabricRuntime):
            name = "vetoer"

            def __init__(self):
                self.seen = []

            def on_rpc(self, src, dst, clock=None):
                self.seen.append((src, dst, clock))
                return False

        network, server = self.fabric()
        vetoer = Vetoer()
        network._attach_runtime(vetoer)
        clock, src = object(), network.peers[0]
        direct, bound = self.RPCS[kind]
        assert direct(network, server.current_pid) is None
        assert bound(network, server.current_pid, clock, src) is None
        assert vetoer.seen == [(None, server, None), (src, server, clock)]
        assert server.provider_store is None  # a vetoed store never lands

    def test_runtime_without_a_slot_is_never_asked_for_peer_assignments(self):
        obs_only = generate_population(
            PopulationConfig(n_peers=20, seed=5, obs=ObsConfig()), random.Random(5)
        )
        network = SimulatedNetwork(Engine(), obs_only, random.Random(6))
        assert network.obs.slot == "" and network.runtimes == [network.obs]
        with pytest.raises(NotImplementedError):
            network.obs.assign_peer(network.peers[0].profile)
        assert not hasattr(network.peers[0], "obs")

    def test_attacker_dropped_reply_on_a_clocked_walk_is_a_dropped_leaf(self):
        network, server = self.fabric(netmodel=NetModelConfig(), trace=TraceConfig())
        server.attacker = QueryDropper("dropper-0", AttackStats(), random.Random(1))
        src = network.peers[0]
        tracer = network.tracer
        tracer.begin("content.retrieve", src.profile.peer_index)
        clock = network.netmodel_clock(src)
        assert network.timed_get_providers_fn(clock, src=src)(server.current_pid, 1) is None
        assert network.get_providers(server.current_pid, 1, src=src) is None
        clocked, unclocked = tracer._events
        # Same outcome in both modes; the clocked leaf still carries the round
        # trip the walk paid for the reply that never came, but no rtt attr.
        assert clocked[:2] == unclocked[:2] == ("r", "get_providers")
        assert clocked[3] == unclocked[3] == "dropped"
        assert clocked[2] == clock.elapsed > 0.0 and unclocked[2] == 0.0
        assert clocked[4] is None and unclocked[4] is None


class TestClientVantagePoint:
    def test_dht_client_sees_far_fewer_peers(self):
        server_cfg = IpfsConfig(low_water=500, high_water=600, dht_mode=DHTMode.SERVER)
        client_cfg = IpfsConfig(low_water=500, high_water=600, dht_mode=DHTMode.CLIENT)

        def run(config):
            engine, network, identity = build_network(go_ipfs_config=config, seed=6)
            network.start(duration=4 * HOUR)
            engine.run_until(4 * HOUR)
            return identity.measurement.finalize(4 * HOUR)

        server_ds = run(server_cfg)
        client_ds = run(client_cfg)
        # The paper's P3 observation: a DHT-Client vantage point observes an
        # order of magnitude fewer PIDs than a DHT-Server vantage point.
        assert client_ds.pid_count() < server_ds.pid_count()


class TestScenarioConfigValidation:
    def test_scenario_needs_a_vantage_point(self):
        with pytest.raises(ValueError):
            ScenarioConfig(go_ipfs=None, hydra_heads=0)

    def test_scenario_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            ScenarioConfig(duration=0.0)

    @pytest.mark.parametrize("duration", [float("inf"), float("nan")])
    def test_scenario_rejects_a_duration_that_would_never_end(self, duration):
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            ScenarioConfig(duration=duration)

    def test_engine_is_not_a_config_field(self):
        # One fabric on one engine: there is no execution mode to select.
        with pytest.raises(TypeError, match="engine"):
            ScenarioConfig(engine="sharded")


class TestScenarioRun:
    def test_scenario_produces_all_datasets(self, small_scenario_result):
        labels = set(small_scenario_result.datasets)
        assert "go-ipfs" in labels
        assert "hydra-H0" in labels and "hydra-H1" in labels
        assert "hydra" in labels

    def test_scenario_is_deterministic(self):
        config = ScenarioConfig(
            duration=HOUR,
            population=PopulationConfig(n_peers=80, seed=21),
            go_ipfs=IpfsConfig(low_water=20, high_water=30),
            hydra_heads=1,
            seed=21,
        )
        a = Scenario(config).run()
        b = Scenario(config).run()
        assert a.dataset("go-ipfs").pid_count() == b.dataset("go-ipfs").pid_count()
        assert a.dataset("go-ipfs").connection_count() == b.dataset("go-ipfs").connection_count()
        stats_a = connection_statistics(a.dataset("go-ipfs"))
        stats_b = connection_statistics(b.dataset("go-ipfs"))
        assert stats_a.all_stats.average == stats_b.all_stats.average

    def test_metadata_behaviors_are_observed(self, small_scenario_result):
        # at least some role flips happened in the ground truth...
        assert small_scenario_result.role_flips >= 0
        # ...and the dataset records protocol changes when they did
        dataset = small_scenario_result.dataset("go-ipfs")
        if small_scenario_result.role_flips > 0:
            assert dataset.changes_of_kind("protocols")


class TestConnectionLifecycleCostModel:
    """Count-based guard on what the connection path allocates (no timing)."""

    def test_tag_maps_only_for_tagged_peers(self, monkeypatch):
        # A connection alone builds no tag bookkeeping: a vantage point's
        # tag maps are exactly the peers it tagged, far fewer than it meets.
        tagged = set()
        real_tag = ConnectionManager.tag_peer

        def recording_tag(manager, peer, tag, value):
            tagged.add((id(manager), peer))
            return real_tag(manager, peer, tag, value)

        monkeypatch.setattr(ConnectionManager, "tag_peer", recording_tag)
        scenario = Scenario(build_scenario_config("p0", n_peers=200, duration_days=0.05, seed=7))
        result = scenario.run()
        monkeypatch.undo()

        managers = [identity.node.connmgr for identity in scenario.identities]
        maps = {(id(manager), peer) for manager in managers for peer in manager._tags}
        met = sum(result.dataset(identity.label).pid_count() for identity in scenario.identities)
        assert maps == tagged
        assert 0 < len(maps) < met

    def test_one_routing_table_write_per_identify_and_no_dht(self, monkeypatch):
        # The vantage points are passive: their only routing-table write is
        # the one each identify makes, they carry no DHT object, and the
        # fabric builds its own tables (on first read) without either call.
        writes = []
        armed = []
        for name in ("add_peer", "remove_peer"):
            real = getattr(RoutingTable, name)

            def counting(table, peer, _real=real):
                if armed:
                    writes.append(table)
                return _real(table, peer)

            monkeypatch.setattr(RoutingTable, name, counting)
        # Every vantage point is an IpfsNode (a hydra head inherits its
        # identify), so patching the one class counts every identify once.
        identifies = []
        real_identify = IpfsNode.receive_identify

        def counting_identify(node, *args):
            if armed:
                identifies.append(node)
            return real_identify(node, *args)

        monkeypatch.setattr(IpfsNode, "receive_identify", counting_identify)
        scenario = Scenario(build_scenario_config("p0", n_peers=200, duration_days=0.05, seed=7))
        real_start = scenario.network.start

        def start_then_count(duration):
            real_start(duration)
            armed.append(True)

        monkeypatch.setattr(scenario.network, "start", start_then_count)
        result = scenario.run()
        monkeypatch.undo()

        nodes = [identity.node for identity in scenario.identities]
        assert len(nodes) >= 2 and result.dataset("go-ipfs").connection_count() > 100
        assert [table.local_peer for table in writes] == [node.peer_id for node in identifies]
        assert any(isinstance(node, HydraHead) for node in identifies)
        assert not any(hasattr(node, "dht") for node in nodes)


def _sorted_online_walk(network):
    """The walk ``online_peers`` replaced: the online index sorted per call."""
    return [peer for _, peer in sorted(network._online.items())]


class TestOnlinePeers:
    """``online_peers`` is the sorted online walk without the sort, at every
    moment of every scenario (sessions, crashes, partitions, attackers)."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(scenario_names()),
        seed=st.integers(0, 50),
        every=st.sampled_from([45.0, 300.0, 410.0]),
    )
    def test_matches_the_sorted_online_walk(self, name, seed, every):
        scenario = Scenario(build_scenario_config(name, n_peers=40, duration_days=0.02, seed=seed))
        sizes = []

        def compare(now):
            walk = scenario.network.online_peers()
            assert walk == _sorted_online_walk(scenario.network)
            sizes.append(len(walk))

        PeriodicTask(scenario.engine, every, compare)
        scenario.run()
        assert sizes and max(sizes) > 0


class TestCollectorHygiene:
    """Scenario parks the cyclic collector while it builds and while it
    drains, and freezes nothing; it must hand the collector back as it found
    it."""

    @staticmethod
    def _config(seed=3):
        return ScenarioConfig(
            duration=0.25 * HOUR,
            population=PopulationConfig(n_peers=60, seed=seed),
            go_ipfs=IpfsConfig(low_water=20, high_water=30),
            seed=seed,
        )

    @pytest.fixture
    def restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        gc.unfreeze()
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_the_callers(self, restore_collector, enabled):
        (gc.enable if enabled else gc.disable)()
        scenario = Scenario(self._config())
        assert gc.isenabled() is enabled
        scenario.run()
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == 0

    def test_a_failing_drain_reenables(self, restore_collector):
        gc.enable()
        scenario = Scenario(self._config())

        def failing_behaviour():
            # the drain runs with the collector parked and nothing frozen
            assert not gc.isenabled() and gc.get_freeze_count() == 0
            raise RuntimeError("behaviour failed")

        scenario.engine.schedule(60.0, failing_behaviour)
        with pytest.raises(RuntimeError, match="behaviour failed"):
            scenario.run()
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    def test_a_failing_start_reenables(self, restore_collector, monkeypatch):
        gc.enable()
        scenario = Scenario(self._config())

        def failing_start(duration):
            assert not gc.isenabled()
            raise RuntimeError("start failed")

        monkeypatch.setattr(scenario.network, "start", failing_start)
        with pytest.raises(RuntimeError, match="start failed"):
            scenario.run()
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    def test_sequential_runs_do_not_accumulate(self, restore_collector, monkeypatch):
        # A finished run holds no reference cycle, so reference counting
        # frees each run as it is dropped and a sweep worker never carries
        # an earlier cell while it builds the next.  The collector stays off
        # for the whole test, and the count is taken against a baseline:
        # garbage earlier tests left for the collector is not this test's.
        gc.disable()

        def live_peers():
            return sum(1 for obj in gc.get_objects() if type(obj) is SimPeer)

        baseline = live_peers()
        live_at_build = []
        generate = scenario_module.generate_population

        def counting_generate(config, rng):
            live_at_build.append(live_peers())
            return generate(config, rng)

        monkeypatch.setattr(scenario_module, "generate_population", counting_generate)
        for seed in range(6):
            result = Scenario(self._config(seed)).run()
            assert result.events_processed > 0
            del result
        assert live_at_build == [baseline] * 6
        assert live_peers() == baseline
