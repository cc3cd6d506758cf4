"""Tests for the synthetic population generator."""

import pickle
import random
import tracemalloc

import pytest

from repro.kademlia.dht import DHTMode
from repro.libp2p.protocols import KAD_DHT, SBPTP, supports_bitswap
from repro.scenarios.registry import build_scenario_config
from repro.simulation.population import (
    PeerClass,
    PopulationConfig,
    generate_population,
)
from repro.simulation.scenario import Scenario


@pytest.fixture(scope="module")
def population():
    config = PopulationConfig.scaled_to_paper(1200, seed=3)
    return generate_population(config, random.Random(3))


class TestPopulationConfig:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            PopulationConfig(n_peers=0)

    def test_rejects_bad_class_shares(self):
        with pytest.raises(ValueError):
            PopulationConfig(
                class_shares={
                    PeerClass.HEAVY: 0.5,
                    PeerClass.NORMAL: 0.2,
                    PeerClass.LIGHT: 0.2,
                    PeerClass.ONE_TIME: 0.2,
                }
            )

    def test_scaled_to_paper_scales_special_populations(self):
        small = PopulationConfig.scaled_to_paper(600)
        large = PopulationConfig.scaled_to_paper(6000)
        assert sum(large.hydra_operator_head_counts) > sum(small.hydra_operator_head_counts)
        assert large.pid_farm_peers > small.pid_farm_peers


class TestGeneratedPopulation:
    def test_population_size(self, population):
        assert len(population) == 1200

    def test_class_shares_roughly_match_table_iv(self, population):
        counts = population.class_counts()
        total = len(population)
        # generous bands: the hydra heads and the PID farm skew heavy/light a bit
        assert 0.10 < counts[PeerClass.HEAVY] / total < 0.35
        assert 0.15 < counts[PeerClass.NORMAL] / total < 0.35
        assert 0.18 < counts[PeerClass.LIGHT] / total < 0.40
        assert 0.18 < counts[PeerClass.ONE_TIME] / total < 0.40

    def test_servers_and_clients_both_present(self, population):
        assert population.servers()
        assert population.clients()
        assert len(population.servers()) < len(population)

    def test_hydra_heads_share_operator_ips(self, population):
        heads = population.hydra_heads()
        assert heads
        ips = {h.public_ip for h in heads}
        # many heads, few IPs (the paper: 1'026 heads on 11 IPs)
        assert len(ips) <= len(population.config.hydra_operator_head_counts)
        assert all(h.peer_class is PeerClass.HEAVY for h in heads)
        assert all(h.role is DHTMode.SERVER for h in heads)

    def test_pid_farm_exists_and_shares_one_ip(self, population):
        farm = [p for p in population if p.is_pid_farm]
        assert len(farm) >= 3
        assert len({p.public_ip for p in farm}) == 1
        assert all(p.rotates_pid for p in farm)

    def test_crawler_profiles_exist(self, population):
        crawlers = [p for p in population if p.is_crawler]
        assert crawlers
        assert all(c.role is DHTMode.CLIENT for c in crawlers)
        assert all(c.peer_class is PeerClass.LIGHT for c in crawlers)

    def test_storm_peers_announce_sbptp_without_bitswap(self, population):
        storm = [p for p in population if p.is_storm and p.agent and "go-ipfs" in p.agent]
        assert storm
        for peer in storm:
            assert SBPTP in peer.protocols
            assert not supports_bitswap(peer.protocols)

    def test_missing_agent_peers_have_no_protocols(self, population):
        missing = [p for p in population if p.agent is None and not p.is_hydra_head]
        assert missing
        assert all(not p.protocols for p in missing)

    def test_servers_announce_kad(self, population):
        for profile in population.servers():
            if profile.protocols:
                assert KAD_DHT in profile.protocols

    def test_some_nat_and_shared_ips(self, population):
        nated = [p for p in population if p.behind_nat]
        assert nated
        groups = population.ip_groups()
        shared = [ip for ip, members in groups.items() if len(members) > 1]
        assert shared

    def test_determinism_for_same_seed(self):
        config = PopulationConfig(n_peers=200, seed=9)
        a = generate_population(config, random.Random(9))
        b = generate_population(config, random.Random(9))
        assert [p.agent for p in a] == [p.agent for p in b]
        assert [p.public_ip for p in a] == [p.public_ip for p in b]
        assert [p.peer_class for p in a] == [p.peer_class for p in b]

    def test_behavior_flags_present_at_scale(self, population):
        assert any(p.flips_role for p in population)
        assert any(p.flips_autonat for p in population)
        assert any(p.rotates_pid for p in population)


class TestSharedValues:
    """Equal immutable values are one object: a population holds a handful of
    protocol sets and session models, not one copy per peer."""

    #: traced bytes per peer that building ``p2`` at 2 000 peers may allocate
    #: (3 920 with per-peer copies, ≈ 2 100 with shared values, ≈ 1 250 with
    #: peer addresses built on first read, Python 3.11)
    BYTES_PER_PEER_BUDGET = 1_700

    def test_profiles_are_slotted_and_picklable(self, population):
        profile = population.profiles[-1]
        assert not hasattr(profile, "__dict__")
        with pytest.raises(AttributeError):
            profile.scratch = 1
        assert pickle.loads(pickle.dumps(profile)) == profile

    def test_equal_protocol_sets_are_one_object(self, population):
        protocols = [p.protocols for p in population]
        assert isinstance(protocols[0], frozenset)
        assert len({id(x) for x in protocols}) == len(set(protocols))

    def test_equal_session_models_are_one_object(self, population):
        models = [p.session_model for p in population]
        assert len({id(m) for m in models}) == len(set(models)) < 8

    def test_equal_announcements_share_their_protocol_set(self):
        scenario = Scenario(build_scenario_config("p2", n_peers=300, duration_days=0.01, seed=7))
        peers = scenario.network.peers
        records = [peer.identify_record() for peer in peers]
        assert all(r.listen_addrs is p.addrs for r, p in zip(records, peers))
        # A role flip announces the client set: shared with the peers that
        # announce it from the start.
        for peer in peers:
            peer.kad_announced = not peer.kad_announced
        records += [peer.identify_record() for peer in peers]
        ids_by_value = {}
        for record in records:
            ids_by_value.setdefault(record.protocols, set()).add(id(record.protocols))
        assert all(len(ids) == 1 for ids in ids_by_value.values())
        assert len(ids_by_value) < 30

    def test_construction_stays_within_the_per_peer_byte_budget(self):
        n_peers = 2_000
        config = build_scenario_config("p2", n_peers=n_peers, duration_days=0.01, seed=7)
        tracemalloc.start()
        try:
            scenario = Scenario(config)
            per_peer = tracemalloc.get_traced_memory()[0] / n_peers
        finally:
            tracemalloc.stop()
        assert len(scenario.network.peers) == n_peers
        assert per_peer <= self.BYTES_PER_PEER_BUDGET, per_peer
