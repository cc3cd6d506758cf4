"""Tests for the adversarial subsystem: configs, PID grinding, attacker
profiles, the malicious fabric response paths, and the attack report.

The scenario-level golden for the adversarial catalog lives in
``test_scenarios.py`` (event/connection counts) and
``test_adversary_determinism.py`` (event streams and pinned distortion
metrics); this module covers the pieces in isolation plus one end-to-end run
per attack family at micro scale.
"""

import random
from dataclasses import replace

import pytest

from repro.adversary.attackers import mine_pid_near
from repro.adversary.behaviors import AdversaryBehaviors
from repro.adversary.config import (
    AdversaryConfig,
    ChurnSpoofConfig,
    EclipseConfig,
    RoutingPoisonConfig,
    SybilFloodConfig,
)
from repro.adversary.profiles import StagedArrivalSessionModel, build_adversary_profiles
from repro.analysis.attack_report import attack_headline, attack_metrics
from repro.core.netsize import estimate_by_neighborhood_density
from repro.kademlia.keys import KEY_BITS, key_for_peer
from repro.simulation.churn_models import DAY
from repro.simulation.content import ContentRoutingConfig
from repro.simulation.population import PopulationConfig
from repro.simulation.config import ScenarioConfig
from repro.simulation.scenario import Scenario


def micro_config(adversary, seed=11, n_peers=60, content=False, duration=0.02 * DAY):
    population = replace(
        PopulationConfig.scaled_to_paper(n_peers, seed=seed), adversary=adversary
    )
    content_config = None
    if content:
        content_config = ContentRoutingConfig(
            publish_interval=duration / 8,
            retrieve_interval=duration / 16,
            provider_ttl=duration / 2,
            republish_interval=None,
            n_items=16,
        )
    return ScenarioConfig(
        duration=duration, population=population, content=content_config, seed=seed
    )


class TestConfigValidation:
    def test_empty_adversary_config_rejected(self):
        with pytest.raises(ValueError, match="at least one attack"):
            AdversaryConfig()

    def test_bad_blocks_rejected(self):
        with pytest.raises(ValueError, match="count"):
            SybilFloodConfig(count=0)
        with pytest.raises(ValueError, match="arrival_window"):
            SybilFloodConfig(arrival_window=(100.0, 50.0))
        with pytest.raises(ValueError, match="victim_items"):
            EclipseConfig(victim_items=0)
        with pytest.raises(ValueError, match="shadow_publish_interval"):
            EclipseConfig(shadow_publish_interval=0.0)
        with pytest.raises(ValueError, match="drop_share"):
            RoutingPoisonConfig(drop_share=1.5)
        with pytest.raises(ValueError, match="session_mean"):
            ChurnSpoofConfig(session_mean=0.0)

    def test_attacker_counts(self):
        config = AdversaryConfig(
            sybil=SybilFloodConfig(count=10),
            poison=RoutingPoisonConfig(count=9, drop_share=0.5),
        )
        profiles = build_adversary_profiles(config, start_index=0, seed=1)
        kinds = [p.adversary_kind for p in profiles]
        assert len(profiles) == 19
        assert kinds.count("sybil") == 10
        assert kinds.count("dropper") + kinds.count("poisoner") == 9


class TestPidGrinding:
    def test_mined_pid_shares_the_requested_prefix(self):
        rng = random.Random(3)
        target = rng.getrandbits(256)
        for bits in (4, 12, 24):
            pid = mine_pid_near(target, bits, rng)
            # the top ``bits`` bits agree: the XOR distance fits below them
            assert (key_for_peer(pid) ^ target).bit_length() <= KEY_BITS - bits

    def test_mined_pids_are_distinct(self):
        rng = random.Random(3)
        target = rng.getrandbits(256)
        pids = {mine_pid_near(target, 16, rng) for _ in range(50)}
        assert len(pids) == 50

    def test_zero_bits_is_a_uniform_pid(self):
        pid = mine_pid_near(123, 0, random.Random(3))
        assert len(pid.digest) == 32


class TestDensityEstimator:
    def test_uniform_keys_estimate_the_population(self):
        rng = random.Random(5)
        n = 2000
        keys = [rng.getrandbits(256) for _ in range(n)]
        estimate = estimate_by_neighborhood_density(keys, rng.getrandbits(256))
        assert 0.3 * n < estimate.estimate < 3.0 * n

    def test_packed_neighborhood_inflates_the_estimate(self):
        rng = random.Random(5)
        target = rng.getrandbits(256)
        honest = [rng.getrandbits(256) for _ in range(500)]
        packed = honest + [
            key_for_peer(mine_pid_near(target, 16, rng)) for _ in range(30)
        ]
        base = estimate_by_neighborhood_density(honest, target).estimate
        inflated = estimate_by_neighborhood_density(packed, target).estimate
        assert inflated > 20 * base

    def test_empty_keys(self):
        estimate = estimate_by_neighborhood_density([], 123)
        assert estimate.estimate == 0.0 and estimate.sample_size == 0


class TestAdversaryProfiles:
    CONFIG = AdversaryConfig(
        sybil=SybilFloodConfig(count=8, arrival_window=(10.0, 100.0)),
        eclipse=EclipseConfig(count=6),
        poison=RoutingPoisonConfig(count=6, drop_share=0.5),
        churn_spoof=ChurnSpoofConfig(count=4),
    )

    def test_profiles_cover_every_kind_with_contiguous_indices(self):
        profiles = build_adversary_profiles(self.CONFIG, start_index=100, seed=7)
        assert len(profiles) == 8 + 6 + 6 + 4
        assert [p.peer_index for p in profiles] == list(range(100, 100 + len(profiles)))
        kinds = {p.adversary_kind for p in profiles}
        assert kinds == {"sybil", "eclipse", "poisoner", "dropper", "churn-spoofer"}

    def test_profiles_are_deterministic_per_seed(self):
        first = build_adversary_profiles(self.CONFIG, start_index=0, seed=7)
        second = build_adversary_profiles(self.CONFIG, start_index=0, seed=7)
        assert [p.public_ip for p in first] == [p.public_ip for p in second]
        assert [p.agent for p in first] == [p.agent for p in second]

    def test_sybils_share_few_host_ips(self):
        config = AdversaryConfig(sybil=SybilFloodConfig(count=32))
        profiles = build_adversary_profiles(config, start_index=0, seed=7)
        assert len({p.public_ip for p in profiles}) <= 2

    def test_staged_arrival_starts_offline_inside_the_window(self):
        model = StagedArrivalSessionModel(window=(50.0, 200.0))
        online, first_change = model.initial_state(random.Random(1))
        assert not online
        assert 50.0 <= first_change <= 200.0


class TestSybilEndToEnd:
    def test_sybils_inflate_density_but_not_multiaddr_grouping(self):
        adversary = AdversaryConfig(
            sybil=SybilFloodConfig(count=24, arrival_window=(60.0, 600.0))
        )
        result = Scenario(micro_config(adversary)).run()
        metrics = attack_metrics(result)
        netsize = metrics["netsize"]
        # density explodes, the IP-grouping estimator barely moves (the flood
        # shares two host IPs)
        assert netsize["density_inflation"] > 3.0
        assert netsize["multiaddr_inflation"] < 1.0
        assert netsize["attacker_pids_observed"] > 0

    def test_attack_stats_record_the_mining(self):
        adversary = AdversaryConfig(
            sybil=SybilFloodConfig(count=10, arrival_window=(60.0, 600.0))
        )
        result = Scenario(micro_config(adversary)).run()
        stats = result.adversary
        assert stats.counter("sybil_pids_mined") == 10
        kinds = {event[1] for event in stats.events}
        assert "sybil-mine" in kinds
        assert len(stats.attacker_pids) == 10


class TestEclipseEndToEnd:
    def test_wide_ring_captures_the_victim_records(self):
        adversary = AdversaryConfig(
            eclipse=EclipseConfig(count=24, victim_items=1, closeness_bits=24)
        )
        result = Scenario(micro_config(adversary, content=True)).run()
        metrics = attack_metrics(result)["eclipse"]
        assert metrics["records_captured"] > 0
        assert metrics["capture_rate"] > 0.8
        assert metrics["occupancy"] > 0.8

    def test_shadow_publishing_pollutes_honest_stores(self):
        duration = 0.02 * DAY
        adversary = AdversaryConfig(
            eclipse=EclipseConfig(
                count=12,
                victim_items=1,
                shadow_publish_interval=duration / 8,
            )
        )
        result = Scenario(micro_config(adversary, content=True, duration=duration)).run()
        stats = result.adversary
        assert stats.counter("shadow_publishes") > 0


class TestPoisonEndToEnd:
    def test_droppers_and_poisoners_split_and_fire(self):
        adversary = AdversaryConfig(
            poison=RoutingPoisonConfig(count=10, drop_share=0.5)
        )
        result = Scenario(micro_config(adversary, content=True)).run()
        stats = result.adversary
        assert stats.by_kind == {"dropper": 5, "poisoner": 5}
        assert stats.counter("queries_dropped") > 0
        assert stats.counter("queries_poisoned") > 0
        assert stats.counter("bogus_peers_returned") > 0
        routing = attack_metrics(result)["routing"]
        assert routing["bogus_peers_returned"] >= routing["queries_poisoned"]


class TestChurnSpoofEndToEnd:
    def test_spoofers_flood_the_classification(self):
        adversary = AdversaryConfig(
            churn_spoof=ChurnSpoofConfig(count=15, session_mean=60.0, downtime_mean=40.0)
        )
        result = Scenario(micro_config(adversary)).run()
        stats = result.adversary
        assert stats.spoofed_sessions > 15         # several sessions each
        assert stats.spoofed_pids > 15             # a fresh PID per session
        churn = attack_metrics(result)["churn"]
        assert churn["misclassification_rate"] > 0.3
        assert churn["one_time_inflation"] > 1.0
        # every observed class count is at least its honest-only count
        for label, observed in churn["observed_classes"].items():
            assert observed >= churn["honest_classes"][label]


class TestReportShape:
    def test_no_adversary_yields_none(self):
        result = Scenario(micro_config(None)).run()
        assert result.adversary is None
        assert attack_metrics(result) is None
        assert attack_headline(None) == "-"

    def test_headline_is_compact(self):
        adversary = AdversaryConfig(
            sybil=SybilFloodConfig(count=10, arrival_window=(60.0, 600.0))
        )
        result = Scenario(micro_config(adversary)).run()
        headline = attack_headline(attack_metrics(result))
        assert headline.startswith("net x")
        assert len(headline) < 30

    def test_install_twice_rejected(self):
        config = micro_config(
            AdversaryConfig(sybil=SybilFloodConfig(count=4, arrival_window=(1.0, 2.0)))
        )
        scenario = Scenario(config)
        scenario.adversary.install(config.duration)
        with pytest.raises(RuntimeError, match="already installed"):
            scenario.adversary.install(config.duration)

    def test_schedule_before_install_rejected(self):
        config = micro_config(
            AdversaryConfig(sybil=SybilFloodConfig(count=4, arrival_window=(1.0, 2.0)))
        )
        network = Scenario(config).network
        behaviors = AdversaryBehaviors(
            network.engine, network, config=config.population.adversary
        )
        with pytest.raises(RuntimeError, match="install"):
            behaviors.schedule_all(config.duration)
