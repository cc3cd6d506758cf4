"""End-to-end tests for the content-routing subsystem.

Three layers, mirroring the real stack:

* the DHT layer — the module-level PROVIDE / FIND_PROVIDERS walks against a
  test-local mesh of servers, each a :class:`RoutingTable` plus a
  :class:`ProviderStore` (the shape the simulated network's peers have); the
  simulated network, the one server of those RPCs, refuses them at
  DHT-Clients;
* the exchange layer — a published block resolved through the walks and
  pulled over Bitswap into the retriever's store, and a retriever that
  already holds the block answering from its own store without a walk;
* the simulation layer — the Zipf publish/retrieve workload of the content
  scenarios, including the pinned micro-scale golden for ``provide-churn``
  and the success-decay signature of ``provider-record-expiry``.
"""

import random

import pytest

from repro.ipfs.bitswap import BitswapEngine
from repro.kademlia.dht import iterative_find_providers, iterative_provide
from repro.kademlia.keys import key_for_content, xor_distance
from repro.kademlia.provider_store import ProviderStore
from repro.kademlia.routing_table import RoutingTable
from repro.libp2p.peer_id import PeerId
from repro.scenarios.registry import run_scenario_by_name
from repro.simulation import behaviors as behaviors_module
from repro.simulation.behaviors import ContentBehaviors
from repro.simulation.churn_models import HOUR
from repro.simulation.content import ContentRoutingConfig, ZipfCatalog
from repro.simulation.engine import Engine
from repro.simulation.network import SimulatedNetwork
from repro.simulation.population import PopulationConfig, generate_population

NOW = 1_000.0


class ServerMesh:
    """A fully meshed set of DHT servers answering the walks' three RPCs."""

    def __init__(self, n=14, seed=3):
        rng = random.Random(seed)
        peers = [PeerId.random(rng) for _ in range(n)]
        self.tables = {}
        self.stores = {}
        for peer in peers:
            self.tables[peer] = RoutingTable(peer)
            self.tables[peer].add_peers(other for other in peers if other != peer)
            self.stores[peer] = ProviderStore()

    def seeds(self):
        return list(self.tables)[:3]

    def query(self, remote, target, count):
        table = self.tables.get(remote)
        return None if table is None else table.closest_peers(target, count)

    def add_provider(self, remote, key, provider):
        store = self.stores.get(remote)
        if store is None:
            return None
        store.add(key, provider, NOW)
        return True

    def get_providers(self, now=NOW):
        def ask(remote, key):
            if remote not in self.tables:
                return None
            providers = self.stores[remote].providers(key, now, limit=20)
            return providers, self.tables[remote].closest_peers(key, 20)

        return ask


PUBLISHER = PeerId.random(random.Random(99))
RETRIEVER = PeerId.random(random.Random(77))


def provide(mesh, key, **kwargs):
    return iterative_provide(
        key, mesh.query, mesh.add_provider, PUBLISHER, mesh.seeds(), **kwargs
    )


def find_providers(mesh, key, now=NOW, **kwargs):
    return iterative_find_providers(
        key, mesh.get_providers(now), mesh.seeds(), self_id=RETRIEVER, **kwargs
    )


class TestDhtContentRouting:
    def test_provide_stores_on_the_closest_servers(self):
        mesh = ServerMesh()
        key = key_for_content(b"some content")
        result = provide(mesh, key, replication=4)
        assert result.succeeded()
        closest = sorted(mesh.tables, key=lambda p: xor_distance(p.kad_key(), key))[:4]
        assert result.stored_on == closest
        for pid in mesh.stores:
            expected = [PUBLISHER] if pid in closest else []
            assert mesh.stores[pid].providers(key, NOW) == expected

    def test_find_providers_resolves_a_published_record(self):
        mesh = ServerMesh()
        key = key_for_content(b"some content")
        provide(mesh, key, replication=4)
        result = find_providers(mesh, key, max_providers=1)
        assert result.succeeded()
        assert result.providers == [PUBLISHER]
        assert result.satisfied
        assert result.hops >= 1

    def test_unpublished_key_resolves_to_nothing(self):
        result = find_providers(ServerMesh(), key_for_content(b"never published"))
        assert not result.succeeded()
        assert result.providers == []

    def test_records_expire_out_of_resolution(self):
        mesh = ServerMesh()
        key = key_for_content(b"short-lived")
        provide(mesh, key)
        late = NOW + next(iter(mesh.stores.values())).ttl + 1.0
        assert find_providers(mesh, key, now=late).providers == []

    def test_clients_refuse_provider_rpcs(self):
        engine, network = started_network()
        client = next(p for p in network.peers if p.online and not p.is_dht_server)
        assert network.add_provider(client.current_pid, 1234, PUBLISHER, ttl=60.0) is None
        assert network.get_providers(client.current_pid, 1234) is None
        assert network.dht_query(client.current_pid, 1234, 20) is None

    def test_servers_store_and_serve_records_until_they_expire(self):
        engine, network = started_network()
        server = next(p for p in network.peers if p.online and p.is_dht_server)
        key = key_for_content(b"fabric record")
        assert network.add_provider(server.current_pid, key, PUBLISHER, ttl=60.0) is True
        providers, closer = network.get_providers(server.current_pid, key)
        assert providers == [PUBLISHER]
        assert closer == network.honest_find_node(server, key, 20)
        engine.run_until(engine.now + 61.0)
        assert network.get_providers(server.current_pid, key)[0] == []


def started_network():
    """A 120-peer simulated network one hour into a run."""
    engine = Engine()
    population = generate_population(PopulationConfig(n_peers=120, seed=5), random.Random(5))
    network = SimulatedNetwork(engine, population, random.Random(6))
    network.start(duration=HOUR)
    engine.run_until(HOUR)
    return engine, network


class TestIpfsNodeContentE2E:
    """Publish, resolve, exchange: the walks over the mesh, then the one
    want/block round trip a simulated retriever runs against the provider's
    Bitswap engine (``ContentBehaviors._retrieve``)."""

    def test_publish_then_fetch_moves_the_block_over_bitswap(self):
        mesh = ServerMesh()
        publisher, retriever = BitswapEngine(), BitswapEngine()
        data = b"x" * 512
        publisher.add_block("bafytest", data)
        key = key_for_content(b"bafytest")
        assert provide(mesh, key).succeeded()
        providers = find_providers(mesh, key, max_providers=1).providers
        assert providers == [PUBLISHER]

        block = retriever.fetch_from(publisher, "bafytest")
        assert block == data
        assert retriever.has_block("bafytest")

    def test_fetch_of_unpublished_cid_returns_none(self):
        mesh = ServerMesh()
        key = key_for_content(b"bafy-missing")
        assert find_providers(mesh, key).providers == []
        # a peer without the block serves nothing, and nothing is stored
        retriever = BitswapEngine()
        assert retriever.fetch_from(BitswapEngine(), "bafy-missing") is None
        assert not retriever.has_block("bafy-missing")

    def test_fetch_prefers_the_local_blockstore(self, monkeypatch):
        engine, network = started_network()
        content = ContentBehaviors(engine, network, random.Random(7))
        peer = next(p for p in network.peers if p.online)
        monkeypatch.setattr(content.catalog, "sample", lambda rng: 0)
        peer.ensure_bitswap().add_block(content.catalog.cid(0), b"here already")

        def exploding_find_providers(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("local block should not trigger a lookup")

        monkeypatch.setattr(behaviors_module, "iterative_find_providers", exploding_find_providers)
        content._retrieve(peer)
        assert content.stats.retrievals_local == 1
        assert content.stats.retrievals == 0


class TestZipfCatalog:
    def test_head_items_dominate(self):
        catalog = ZipfCatalog(50, exponent=1.1)
        rng = random.Random(1)
        samples = [catalog.sample(rng) for _ in range(4000)]
        head = sum(1 for s in samples if s == 0)
        tail = sum(1 for s in samples if s == 49)
        assert head > 10 * max(tail, 1)
        assert all(0 <= s < 50 for s in samples)

    def test_sampling_is_deterministic(self):
        catalog = ZipfCatalog(20)
        first = [catalog.sample(random.Random(7)) for _ in range(50)]
        second = [catalog.sample(random.Random(7)) for _ in range(50)]
        assert first == second

    def test_cid_key_block_are_pure(self):
        catalog = ZipfCatalog(4)
        other = ZipfCatalog(4)
        for item in range(4):
            assert catalog.cid(item) == other.cid(item)
            assert catalog.key(item) == other.key(item)
            assert catalog.key(item) == key_for_content(catalog.cid(item).encode())
            assert catalog.block(item) == other.block(item)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            ZipfCatalog(0)
        with pytest.raises(ValueError):
            ZipfCatalog(10, exponent=0.0)


class TestContentConfigValidation:
    def test_bad_shares_rejected(self):
        with pytest.raises(ValueError, match="publisher_share"):
            ContentRoutingConfig(publisher_share=1.5)
        with pytest.raises(ValueError, match="retriever_share"):
            ContentRoutingConfig(retriever_share=-0.1)

    def test_bad_intervals_rejected(self):
        with pytest.raises(ValueError, match="publish_interval"):
            ContentRoutingConfig(publish_interval=0.0)
        with pytest.raises(ValueError, match="provider_ttl"):
            ContentRoutingConfig(provider_ttl=-1.0)
        with pytest.raises(ValueError, match="republish_interval"):
            ContentRoutingConfig(republish_interval=0.0)

    def test_none_republish_disables_republishing(self):
        config = ContentRoutingConfig(republish_interval=None)
        assert config.republish_interval is None


class TestContentScenarios:
    """The simulation-layer workload, pinned at micro scale."""

    #: fixed-seed fingerprint of provide-churn at (60 peers, 0.02 d, seed 11) —
    #: the content-routing counterpart of the catalog's golden event counts
    PROVIDE_CHURN_GOLDEN = {
        "publishers": 1,
        "retrievers": 16,
        "provides": 11,
        "provide_successes": 11,
        "republishes": 14,
        "records_stored": 157,
        "records_expired": 5,
        "records_live_at_end": 66,
        "retrievals": 118,
        "retrieval_successes": 28,
        "retrievals_local": 32,
    }

    def micro(self, name):
        return run_scenario_by_name(name, n_peers=60, duration_days=0.02, seed=11)

    def test_provide_churn_micro_golden(self):
        stats = self.micro("provide-churn").content
        observed = {k: getattr(stats, k) for k in self.PROVIDE_CHURN_GOLDEN}
        assert observed == self.PROVIDE_CHURN_GOLDEN

    def test_rerun_is_fully_deterministic_including_samples(self):
        first = self.micro("provide-churn").content
        second = self.micro("provide-churn").content
        assert first == second  # dataclass equality covers the hop/latency lists

    def test_expiry_scenario_decays_and_leaves_no_records(self):
        stats = self.micro("provider-record-expiry").content
        assert stats.republishes == 0
        assert stats.records_expired > 0
        assert stats.records_live_at_end == 0
        assert stats.first_half_retrievals > 0 and stats.second_half_retrievals > 0
        assert stats.second_half_success_rate < stats.first_half_success_rate

    def test_scenarios_without_content_report_none(self):
        assert self.micro("p1").content is None

    def test_retrieval_flash_crowd_serves_hot_items_locally(self):
        stats = self.micro("retrieval-flash-crowd").content
        # the steep Zipf head means repeat requests hit the local blockstore
        assert stats.retrievals_local > 0
        assert stats.retrievals + stats.retrievals_local > stats.retrievals
