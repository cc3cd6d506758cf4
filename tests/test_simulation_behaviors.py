"""Tests for the meta-data behaviours (version changes, role/autonat flips)."""

import random

from repro.libp2p.agent import parse_goipfs_agent
from repro.simulation.behaviors import MetadataBehaviors
from repro.simulation.config import BehaviorConfig
from repro.simulation.churn_models import DAY, HOUR
from repro.simulation.engine import Engine
from repro.simulation.network import MeasurementIdentity, SimulatedNetwork
from repro.simulation.population import (
    PopulationConfig,
    VersionBehavior,
    generate_population,
)
from repro.ipfs.config import IpfsConfig
from repro.ipfs.node import IpfsNode


def build(
    n_peers=150,
    seed=4,
    upgrade_share=0.2,
    downgrade_share=0.1,
    change_share=0.1,
    role_flip_share=0.3,
    autonat_flip_share=0.3,
):
    engine = Engine()
    config = PopulationConfig(
        n_peers=n_peers,
        seed=seed,
        upgrade_share=upgrade_share,
        downgrade_share=downgrade_share,
        commit_change_share=change_share,
        role_flip_share=role_flip_share,
        autonat_flip_share=autonat_flip_share,
    )
    population = generate_population(config, random.Random(seed))
    network = SimulatedNetwork(engine, population, random.Random(seed + 1))
    node = IpfsNode(
        IpfsConfig(low_water=500, high_water=600, poll_interval=60.0), rng=random.Random(seed + 2)
    )
    network.add_measurement_identity(MeasurementIdentity("go-ipfs", node))
    behaviors = MetadataBehaviors(engine, network, random.Random(seed + 3))
    return engine, network, behaviors


class TestVersionChanges:
    def test_population_contains_all_change_kinds(self):
        _, network, _ = build()
        behaviors_present = {p.profile.version_behavior for p in network.peers}
        assert VersionBehavior.UPGRADE in behaviors_present
        assert VersionBehavior.DOWNGRADE in behaviors_present

    def test_version_changes_applied_during_run(self):
        engine, network, behaviors = build()
        network.start(duration=DAY)
        behaviors.schedule_all(duration=DAY)
        engine.run_until(DAY)
        assert behaviors.version_changes_applied > 0

    def test_upgrades_move_release_forward(self):
        engine, network, behaviors = build()
        upgraders = [
            p for p in network.peers
            if p.profile.version_behavior is VersionBehavior.UPGRADE and p.agent
        ]
        before = {p.profile.peer_index: parse_goipfs_agent(p.agent) for p in upgraders}
        network.start(duration=DAY)
        behaviors.schedule_all(duration=DAY)
        engine.run_until(DAY)
        changed = 0
        for peer in upgraders:
            old = before[peer.profile.peer_index]
            new = parse_goipfs_agent(peer.agent)
            if old is None or new is None:
                continue
            if new.release != old.release:
                changed += 1
                assert new.release > old.release
        assert changed > 0


class TestProtocolFlips:
    def test_role_flips_toggle_kad_announcement(self):
        engine, network, behaviors = build()
        flappers = [p for p in network.peers if p.profile.flips_role]
        assert flappers
        before = {p.profile.peer_index: p.kad_announced for p in flappers}
        network.start(duration=DAY)
        behaviors.schedule_all(duration=DAY)
        engine.run_until(DAY)
        assert behaviors.role_flips_applied > 0
        toggled = sum(
            1 for p in flappers if p.kad_announced != before[p.profile.peer_index]
        )
        # an odd number of flips leaves the announcement toggled for some peers
        assert toggled >= 0

    def test_autonat_flips_applied(self):
        engine, network, behaviors = build()
        network.start(duration=DAY)
        behaviors.schedule_all(duration=DAY)
        engine.run_until(DAY)
        assert behaviors.autonat_flips_applied > 0

    def test_flip_counts_scale_with_duration(self):
        engine_short, network_short, behaviors_short = build(seed=8)
        network_short.start(duration=6 * HOUR)
        behaviors_short.schedule_all(duration=6 * HOUR)
        engine_short.run_until(6 * HOUR)

        engine_long, network_long, behaviors_long = build(seed=8)
        network_long.start(duration=2 * DAY)
        behaviors_long.schedule_all(duration=2 * DAY)
        engine_long.run_until(2 * DAY)

        total_short = behaviors_short.role_flips_applied + behaviors_short.autonat_flips_applied
        total_long = behaviors_long.role_flips_applied + behaviors_long.autonat_flips_applied
        assert total_long > total_short


class TestBehaviorConfig:
    def test_defaults_cover_paper_rates(self):
        config = BehaviorConfig()
        # ~27 flips per flapping peer over 3 days -> one flip every few hours
        assert HOUR < config.role_flip_interval < 6 * HOUR
        assert HOUR < config.autonat_flip_interval < 6 * HOUR
