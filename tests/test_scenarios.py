"""Tests for the scenario registry, the catalog, and the golden event counts.

The golden counts pin every registered scenario (paper periods and stress
scenarios) at micro scale with a fixed seed: a change in any of them means a
behavioural change in the simulation or the scenario definitions, which must
be deliberate and explained — the same contract the P1 golden in
``test_perf_and_runner.py`` enforces for the core.
"""

import dataclasses
import json
import operator
import random
from typing import Optional

import pytest

from repro.experiments.periods import PERIODS, scale_watermarks
from repro.ipfs.config import IpfsConfig
from repro.kademlia.dht import DHTMode
from repro.scenarios.catalog import LARGE_BLOCK_CLASSES, MIXED_BLOCK_CLASSES
from repro.scenarios.registry import (
    OverrideTypeError,
    ScenarioSpec,
    build_scenario_config,
    override_parameters,
    register,
    run_scenario_by_name,
    scenario,
    scenario_names,
    scenarios,
)
from repro.simulation.churn_models import (
    DAY,
    DiurnalChurnModel,
    FlashCrowdChurnModel,
    MassOutageChurnModel,
)
from repro.simulation.config import DEFAULT_CRAWL_INTERVAL, ScenarioConfig
from repro.simulation.content import REPLICATION
from repro.simulation.population import PeerClass, PopulationConfig, generate_population
from repro.sweep import main as sweep_main

STRESS_NAMES = [
    "flash-crowd",
    "diurnal-week",
    "mass-outage",
    "client-heavy",
    "hydra-scaling",
    "crawler-vs-passive-under-burst",
]

BANDWIDTH_NAMES = [
    "flash-crowd-large-blocks",
    "bandwidth-starved-relays",
    "provider-hotspot",
    "mixed-size-catalog",
]

CONTENT_NAMES = [
    "provide-churn",
    "retrieval-flash-crowd",
    "provider-record-expiry",
    # The data-plane scenarios exercise the content subsystem too, so they
    # carry both tags.
    *BANDWIDTH_NAMES,
]

ADVERSARY_NAMES = [
    "sybil-netsize-inflation",
    "eclipse-provider",
    "poisoned-routing-under-churn",
    "spoofed-churn-classification",
]

NETMODEL_NAMES = [
    "nat-heavy-crawl",
    "high-latency-retrieval",
    "relay-assisted-content",
    "timeout-bound-lookups",
]

FAULT_NAMES = [
    "lossy-links",
    "partition-heal",
    "crash-storm",
    "slow-node-tail",
]


class TestRegistry:
    def test_all_paper_periods_registered(self):
        names = scenario_names("paper")
        assert names == ["p0", "p1", "p2", "p3", "p4", "p14"]

    def test_all_stress_scenarios_registered(self):
        assert scenario_names("stress") == STRESS_NAMES

    def test_all_content_scenarios_registered(self):
        assert scenario_names("content") == CONTENT_NAMES

    def test_all_adversary_scenarios_registered(self):
        assert scenario_names("adversary") == ADVERSARY_NAMES

    def test_all_bandwidth_scenarios_registered(self):
        assert scenario_names("bandwidth") == BANDWIDTH_NAMES

    def test_all_netmodel_scenarios_registered(self):
        assert scenario_names("netmodel") == NETMODEL_NAMES

    def test_all_fault_scenarios_registered(self):
        assert scenario_names("faults") == FAULT_NAMES

    def test_lookup_is_case_insensitive(self):
        assert scenario("P1") is scenario("p1")
        assert scenario(" Flash-Crowd ") is scenario("flash-crowd")

    def test_unknown_scenario_names_the_catalog(self):
        with pytest.raises(KeyError, match="flash-crowd"):
            scenario("definitely-not-a-scenario")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(scenario("p1"))

    def test_uppercase_registration_rejected(self):
        spec = scenario("p1")
        bad = ScenarioSpec(
            name="P99", description="x", builder=spec.builder
        )
        with pytest.raises(ValueError, match="lowercase"):
            register(bad)

    def test_specs_document_their_knobs(self):
        for spec in scenarios():
            assert spec.description
            assert spec.default_peers > 0
            assert spec.default_duration_days > 0
            # The Knobs column *is* the --set key list, with live defaults.
            assert set(spec.knobs) == set(override_parameters(spec.builder))
            defaults = {k: v for k, v in spec.knobs.items() if v is not None}
            assert spec.validate_overrides(defaults) == defaults

    def test_listed_defaults_are_the_defaults(self):
        # Passing a spec's printed defaults back as overrides changes nothing.
        def comparable(config):
            # a flash-crowd churn factory is a fresh closure per build
            population = dataclasses.replace(config.population, churn_model_factory=None)
            return dataclasses.replace(config, population=population)

        for spec in scenarios():
            defaults = {k: v for k, v in spec.knobs.items() if v is not None}
            assert comparable(spec.build(60, 0.05, overrides=defaults)) == comparable(
                spec.build(60, 0.05)
            )

    def test_catalog_cells_default_to_600_peers_half_a_day(self):
        for spec in scenarios():
            if "paper" in spec.tags:
                continue
            expected_days = 2.0 if spec.name == "diurnal-week" else 0.5
            assert (spec.default_peers, spec.default_duration_days) == (600, expected_days)

    def test_period_entries_match_period_specs(self):
        for period_id, row in PERIODS.items():
            spec = scenario(period_id)
            assert (spec.default_peers, spec.default_duration_days) == (
                row.bench_peers,
                row.bench_days,
            )
            assert spec.knobs == {
                "low_water": row.low_water,
                "high_water": row.high_water,
                "hydra_heads": row.hydra_heads,
                "crawler": row.run_crawler,
            }
            for n_peers in (60, 600, 6000):
                config = spec.build(n_peers, 0.05)
                low, high = scale_watermarks(row.low_water, row.high_water, n_peers)
                assert config.go_ipfs == IpfsConfig(
                    low_water=low, high_water=high, dht_mode=row.go_ipfs_mode
                )
                assert config.duration == 0.05 * DAY
                assert config.hydra_heads == row.hydra_heads
                assert config.run_crawler == row.run_crawler
                assert config.crawl_interval == DEFAULT_CRAWL_INTERVAL
        p0 = build_scenario_config("p0", n_peers=600)
        assert (p0.hydra_low_water, p0.hydra_high_water) == scale_watermarks(1_200, 1_800, 600)
        p4 = build_scenario_config("p4", n_peers=600)
        assert (p4.hydra_heads, p4.hydra_low_water, p4.hydra_high_water) == (0, None, None)

    def test_a_period_with_another_periods_thresholds(self):
        tight = {"low_water": 600, "high_water": 900}
        p2_as_p0 = build_scenario_config("p2", n_peers=300, overrides=tight)
        assert p2_as_p0.go_ipfs == build_scenario_config("p0", n_peers=300).go_ipfs
        assert p2_as_p0.hydra_heads == 2  # everything else stays P2's


class TestStressScenarioConfigs:
    def test_flash_crowd_population_uses_flash_crowd_models(self):
        config = build_scenario_config("flash-crowd", n_peers=60, duration_days=0.1)
        assert config.population.class_shares[PeerClass.ONE_TIME] == pytest.approx(0.5)
        population = generate_population(config.population, random.Random(1))
        models = [
            p.session_model
            for p in population
            if not (p.is_hydra_head or p.is_crawler or p.is_pid_farm)
        ]
        assert models and all(isinstance(m, FlashCrowdChurnModel) for m in models)

    def test_diurnal_population_uses_diurnal_models(self):
        config = build_scenario_config("diurnal-week", n_peers=60, duration_days=0.1)
        population = generate_population(config.population, random.Random(1))
        models = [
            p.session_model
            for p in population
            if not (p.is_hydra_head or p.is_crawler or p.is_pid_farm)
        ]
        assert models and all(isinstance(m, DiurnalChurnModel) for m in models)

    def test_mass_outage_hits_roughly_the_region_share(self):
        config = build_scenario_config("mass-outage", n_peers=400, duration_days=0.1)
        population = generate_population(config.population, random.Random(1))
        general = [
            p
            for p in population
            if not (p.is_hydra_head or p.is_crawler or p.is_pid_farm)
        ]
        affected = sum(
            isinstance(p.session_model, MassOutageChurnModel) for p in general
        )
        assert 0.25 < affected / len(general) < 0.65

    def test_client_heavy_shrinks_server_share(self):
        config = build_scenario_config("client-heavy", n_peers=60, duration_days=0.1)
        default = PopulationConfig.scaled_to_paper(60)
        for cls, share in config.population.server_share_per_class.items():
            assert share < default.server_share_per_class[cls]
        assert config.go_ipfs.dht_mode is DHTMode.SERVER

    def test_hydra_scaling_is_hydra_only(self):
        config = build_scenario_config("hydra-scaling", n_peers=60, duration_days=0.1)
        assert config.go_ipfs is None
        assert config.hydra_heads == 6
        assert 0 < config.hydra_low_water < config.hydra_high_water

    def test_crawler_scenario_runs_the_crawler(self):
        config = build_scenario_config(
            "crawler-vs-passive-under-burst", n_peers=60, duration_days=0.1
        )
        assert config.run_crawler
        assert config.crawl_interval <= config.duration / 2


class TestGoldenEventCounts:
    """Fixed-seed micro-scale fingerprints of every registered scenario."""

    GOLDEN = {
        "p0": {"events": 751, "connections": 288},
        "p1": {"events": 580, "connections": 196},
        "p2": {"events": 580, "connections": 196},
        "p3": {"events": 192, "connections": 27},
        "p4": {"events": 222, "connections": 36},
        "p14": {"events": 222, "connections": 36},
        "flash-crowd": {"events": 273, "connections": 46},
        "diurnal-week": {"events": 197, "connections": 29},
        "mass-outage": {"events": 218, "connections": 32},
        "client-heavy": {"events": 216, "connections": 32},
        "hydra-scaling": {"events": 930, "connections": 414},
        "crawler-vs-passive-under-burst": {"events": 275, "connections": 46},
        "provide-churn": {"events": 527, "connections": 36},
        "retrieval-flash-crowd": {"events": 1244, "connections": 46},
        "provider-record-expiry": {"events": 514, "connections": 36},
        "sybil-netsize-inflation": {"events": 312, "connections": 70},
        "eclipse-provider": {"events": 665, "connections": 41},
        "poisoned-routing-under-churn": {"events": 647, "connections": 58},
        "spoofed-churn-classification": {"events": 1235, "connections": 128},
        "nat-heavy-crawl": {"events": 172, "connections": 15},
        "high-latency-retrieval": {"events": 516, "connections": 26},
        "relay-assisted-content": {"events": 516, "connections": 26},
        "timeout-bound-lookups": {"events": 488, "connections": 15},
        "lossy-links": {"events": 527, "connections": 36},
        "partition-heal": {"events": 534, "connections": 42},
        "crash-storm": {"events": 835, "connections": 47},
        "slow-node-tail": {"events": 516, "connections": 26},
        "flash-crowd-large-blocks": {"events": 1213, "connections": 40},
        "bandwidth-starved-relays": {"events": 683, "connections": 26},
        "provider-hotspot": {"events": 1040, "connections": 36},
        "mixed-size-catalog": {"events": 712, "connections": 36},
    }

    def test_golden_covers_the_whole_catalog(self):
        assert set(self.GOLDEN) == set(scenario_names())

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_fixed_seed_event_counts(self, name):
        result = run_scenario_by_name(name, n_peers=60, duration_days=0.02, seed=11)
        observed = {
            "events": result.events_processed,
            "connections": sum(len(d.connections) for d in result.datasets.values()),
        }
        assert observed == self.GOLDEN[name]

    def test_stress_scenarios_are_reproducible(self):
        kwargs = dict(n_peers=50, duration_days=0.02, seed=23)
        for name in STRESS_NAMES[:2]:
            first = run_scenario_by_name(name, **kwargs)
            second = run_scenario_by_name(name, **kwargs)
            assert first.events_processed == second.events_processed
            assert {k: len(v.connections) for k, v in first.datasets.items()} == {
                k: len(v.connections) for k, v in second.datasets.items()
            }


class TestContentScenarioConfigs:
    def test_provide_churn_runs_a_content_workload(self):
        config = build_scenario_config("provide-churn", n_peers=60, duration_days=0.1)
        content = config.content
        assert content is not None
        assert content.republish_interval is not None
        assert content.republish_interval < content.provider_ttl
        assert 0 < content.publisher_share < content.retriever_share

    def test_expiry_scenario_disables_republish_with_short_ttl(self):
        config = build_scenario_config(
            "provider-record-expiry", n_peers=60, duration_days=0.1
        )
        content = config.content
        assert content.republish_interval is None
        assert content.provider_ttl < config.duration / 2

    def test_retrieval_flash_crowd_combines_crowd_and_hot_head(self):
        config = build_scenario_config(
            "retrieval-flash-crowd", n_peers=60, duration_days=0.1
        )
        population = generate_population(config.population, random.Random(1))
        models = [
            p.session_model
            for p in population
            if not (p.is_hydra_head or p.is_crawler or p.is_pid_farm)
        ]
        assert models and all(isinstance(m, FlashCrowdChurnModel) for m in models)
        assert config.content.zipf_exponent > 1.2
        assert config.content.retriever_share >= 0.5

    def test_workload_intervals_scale_with_duration(self):
        short = build_scenario_config("provide-churn", n_peers=60, duration_days=0.1)
        long = build_scenario_config("provide-churn", n_peers=60, duration_days=1.0)
        assert long.content.publish_interval == pytest.approx(
            10 * short.content.publish_interval
        )
        assert long.content.provider_ttl == pytest.approx(
            10 * short.content.provider_ttl
        )


class TestAdversaryScenarioConfigs:
    def test_sybil_scenario_scales_the_flood_with_the_population(self):
        small = build_scenario_config("sybil-netsize-inflation", n_peers=100, duration_days=0.1)
        large = build_scenario_config("sybil-netsize-inflation", n_peers=1000, duration_days=0.1)
        assert small.population.adversary.sybil.count < large.population.adversary.sybil.count
        low, high = small.population.adversary.sybil.arrival_window
        assert 0 <= low < high <= small.duration

    def test_eclipse_scenario_pairs_a_content_workload_with_the_ring(self):
        config = build_scenario_config("eclipse-provider", n_peers=200, duration_days=0.1)
        eclipse = config.population.adversary.eclipse
        assert config.content is not None
        assert eclipse.count >= 16
        assert eclipse.victim_items >= 1
        # the ring must out-crowd the record replication factor to fully capture
        assert eclipse.count / eclipse.victim_items >= REPLICATION * 0.8
        assert eclipse.shadow_publish_interval < config.duration

    def test_poisoned_routing_runs_crawler_and_content(self):
        config = build_scenario_config(
            "poisoned-routing-under-churn", n_peers=200, duration_days=0.1
        )
        poison = config.population.adversary.poison
        assert config.run_crawler and config.content is not None
        assert 0.0 < poison.drop_share < 1.0

    def test_spoofed_churn_rotates_many_short_sessions(self):
        config = build_scenario_config(
            "spoofed-churn-classification", n_peers=200, duration_days=0.1
        )
        spoof = config.population.adversary.churn_spoof
        # many sessions fit into the window, each burning a fresh PID
        assert spoof.session_mean + spoof.downtime_mean < config.duration / 10
        population = generate_population(config.population, random.Random(1))
        spoofers = [p for p in population if p.adversary_kind == "churn-spoofer"]
        assert len(spoofers) == spoof.count
        assert all(p.rotates_pid for p in spoofers)

    def test_adversary_rides_on_top_of_the_honest_population(self):
        config = build_scenario_config("sybil-netsize-inflation", n_peers=150, duration_days=0.1)
        population = generate_population(config.population, random.Random(1))
        honest = population.honest()
        assert len(honest) == 150
        assert len(population) - len(honest) == config.population.adversary.sybil.count
        assert len(population) == 150 + config.population.adversary.sybil.count
        # honest profiles are byte-identical to the adversary-free twin
        from dataclasses import replace as dc_replace

        twin_config = dc_replace(config.population, adversary=None)
        twin = generate_population(twin_config, random.Random(1))
        assert [p.public_ip for p in twin] == [p.public_ip for p in honest]
        assert [p.peer_class for p in twin] == [p.peer_class for p in honest]

    @pytest.mark.parametrize(
        "name, key",
        [
            ("sybil-netsize-inflation", "sybil_count"),
            ("eclipse-provider", "eclipse_count"),
            ("poisoned-routing-under-churn", "poison_count"),
            ("spoofed-churn-classification", "spoof_count"),
        ],
    )
    def test_zero_attackers_is_the_attack_free_scenario(self, name, key):
        attacked = build_scenario_config(name, n_peers=200, duration_days=0.1)
        free = build_scenario_config(name, n_peers=200, duration_days=0.1, overrides={key: 0})
        assert attacked.population.adversary is not None
        population = dataclasses.replace(attacked.population, adversary=None)
        assert free == dataclasses.replace(attacked, population=population)
        with pytest.raises(ValueError, match=f"^{key}=-1: "):
            build_scenario_config(name, n_peers=200, duration_days=0.1, overrides={key: -1})


PERIOD_NAMES = [period_id.lower() for period_id in PERIODS]


def _doubled(classes):
    return tuple((2 * size, weight) for size, weight in classes)


class TestOverridesReachTheirField:
    """Every ``--set`` key of the catalog lands in the config field it names."""

    #: where each override key lands in the built config
    FIELD = {
        "sybil_count": "population.adversary.sybil.count",
        "eclipse_count": "population.adversary.eclipse.count",
        "poison_count": "population.adversary.poison.count",
        "drop_share": "population.adversary.poison.drop_share",
        "spoof_count": "population.adversary.churn_spoof.count",
        "nat_share": "population.netmodel.reachability.nat_share",
        "rtt_scale": "population.netmodel.rtt_scale",
        "relay_share": "population.netmodel.reachability.relay_share",
        "lookup_timeout": "population.netmodel.lookup_timeout",
        "loss_rate": "population.faults.links.loss_rate",
        "retry": "population.faults.retry",
        "partition_share": "population.faults.partition.share",
        "crash_share": "population.faults.crash.share",
        "slow_share": "population.faults.slow.share",
        "size_scale": "content.block_size_classes",
        "uplink_scale": "population.bandwidth.uplink_scale",
        "low_water": "go_ipfs.low_water",
        "high_water": "go_ipfs.high_water",
        "hydra_heads": "hydra_heads",
        "crawler": "run_crawler",
    }
    #: (scenario, override key, non-default value, what lands in the field)
    TARGETS = [
        ("sybil-netsize-inflation", "sybil_count", 17, 17),
        ("eclipse-provider", "eclipse_count", 9, 9),
        ("poisoned-routing-under-churn", "poison_count", 21, 21),
        ("poisoned-routing-under-churn", "drop_share", 0.25, 0.25),
        ("spoofed-churn-classification", "spoof_count", 13, 13),
        ("nat-heavy-crawl", "nat_share", 0.33, 0.33),
        ("high-latency-retrieval", "rtt_scale", 7.0, 7.0),
        ("relay-assisted-content", "relay_share", 0.12, 0.12),
        ("timeout-bound-lookups", "lookup_timeout", 5.5, 5.5),
        ("lossy-links", "loss_rate", 0.11, 0.11),
        ("lossy-links", "retry", False, False),
        ("partition-heal", "partition_share", 0.22, 0.22),
        ("crash-storm", "crash_share", 0.6, 0.6),
        ("slow-node-tail", "slow_share", 0.3, 0.3),
        ("flash-crowd-large-blocks", "size_scale", 2.0, _doubled(LARGE_BLOCK_CLASSES)),
        ("flash-crowd-large-blocks", "uplink_scale", 0.5, 0.5),
        ("bandwidth-starved-relays", "uplink_scale", 0.5, 0.5),
        ("bandwidth-starved-relays", "relay_share", 0.12, 0.12),
        ("provider-hotspot", "uplink_scale", 0.5, 0.5),
        ("provider-hotspot", "size_scale", 2.0, _doubled(LARGE_BLOCK_CLASSES)),
        ("mixed-size-catalog", "size_scale", 2.0, _doubled(MIXED_BLOCK_CLASSES)),
        ("mixed-size-catalog", "uplink_scale", 0.5, 0.5),
        # the Table I knobs of the six paper periods; at 6 000 peers the shared
        # rule scales LowWater 500 to 193 and HighWater 90 000 to 34 724
        *((name, "low_water", 500, 193) for name in PERIOD_NAMES),
        *((name, "high_water", 90_000, 34_724) for name in PERIOD_NAMES),
        *((name, "hydra_heads", 5, 5) for name in PERIOD_NAMES),
        # flipped: only P14 runs without the crawler
        *((name, "crawler", name == "p14", name == "p14") for name in PERIOD_NAMES),
    ]

    def test_table_covers_every_override_key(self):
        registered = {
            (spec.name, key) for spec in scenarios() for key in override_parameters(spec.builder)
        }
        assert registered == {(name, key) for name, key, *_ in self.TARGETS}

    @pytest.mark.parametrize(
        "name,key,value,landed", TARGETS, ids=[f"{t[0]}-{t[1]}" for t in TARGETS]
    )
    def test_override_lands_in_its_field(self, name, key, value, landed):
        field = operator.attrgetter(self.FIELD[key])
        # large enough that no scaled watermark sits on its floor of 20
        plain = build_scenario_config(name, n_peers=6_000, duration_days=0.05)
        config = build_scenario_config(
            name, n_peers=6_000, duration_days=0.05, overrides={key: value}
        )
        assert field(config) == landed
        assert field(plain) != landed


class TestOverrideValueTypes:
    """Mistyped ``--set`` values fail at the boundary, before anything runs."""

    BAD = [
        ("lossy-links", "retry", "no", "bool"),
        ("lossy-links", "loss_rate", True, "float"),
        ("mixed-size-catalog", "size_scale", "abc", "float"),
        ("sybil-netsize-inflation", "sybil_count", 2.5, "int"),
        ("sybil-netsize-inflation", "sybil_count", False, "int"),
        ("p1", "low_water", 1.5, "int"),
        ("p1", "crawler", 1, "bool"),
    ]
    #: well-typed but out of range: (overrides, the field the error names)
    OUT_OF_RANGE = [
        ({"high_water": 1_000}, "high_water"),  # below p1's LowWater of 2 000
        ({"low_water": 0}, "low_water"),
        ({"hydra_heads": -1}, "hydra_heads"),
    ]

    @pytest.mark.parametrize("name,key,value,expected", BAD)
    def test_build_rejects_the_value_naming_everything(self, name, key, value, expected):
        with pytest.raises(OverrideTypeError) as caught:
            build_scenario_config(name, n_peers=40, duration_days=0.01, overrides={key: value})
        for part in (name, key, expected, repr(value)):
            assert part in str(caught.value)

    @pytest.mark.parametrize("name,key,value,expected", BAD)
    def test_cli_exits_2_before_any_cell_runs(self, name, key, value, expected, tmp_path, capsys):
        raw = str(value).lower()  # the CLI spells bools true/false
        flags = f"--scenarios {name} --peers 40 --duration 0.01d --set {key}={raw}"
        assert sweep_main([*flags.split(), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert name in err and key in err and expected in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("overrides,field", OUT_OF_RANGE)
    def test_out_of_range_period_knobs_fail_the_build(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            build_scenario_config("p1", n_peers=40, duration_days=0.01, overrides=overrides)

    #: every numeric ``--set`` key in the catalog; -1 is out of range for each
    NUMERIC_KNOBS = [
        (spec.name, key)
        for spec in scenarios()
        for key, param in override_parameters(spec.builder).items()
        if param.annotation in (int, float, Optional[int])
    ]

    @pytest.mark.parametrize("name,key", NUMERIC_KNOBS)
    def test_negative_numeric_knob_fails_naming_its_key(self, name, key):
        # Some range checks name the config field, not the key ("share must
        # be within [0, 1]"); the build still has to say which key it was.
        with pytest.raises(ValueError, match=key):
            build_scenario_config(name, n_peers=40, duration_days=0.01, overrides={key: -1})

    def test_an_int_is_a_valid_float(self, tmp_path):
        contents = [
            build_scenario_config("mixed-size-catalog", overrides={"size_scale": scale}).content
            for scale in (4, 4.0)
        ]
        assert contents[0] == contents[1]
        flags = "--scenarios mixed-size-catalog --peers 40 --duration 0.01d --set size_scale=4"
        assert sweep_main([*flags.split(), "--out", str(tmp_path)]) == 0
        cell = json.loads((tmp_path / "mixed-size-catalog__n40__s7.json").read_text())
        assert cell["overrides"] == {"size_scale": 4}


class TestScenarioConfigValidation:
    """Satellite: bad hydra configurations fail fast with clear errors."""

    def test_negative_hydra_heads_rejected(self):
        with pytest.raises(ValueError, match="hydra_heads"):
            ScenarioConfig(hydra_heads=-1)

    def test_zero_hydra_watermarks_rejected(self):
        with pytest.raises(ValueError, match="hydra_low_water"):
            ScenarioConfig(hydra_heads=2, hydra_low_water=0, hydra_high_water=100)
        with pytest.raises(ValueError, match="hydra_high_water"):
            ScenarioConfig(hydra_heads=2, hydra_low_water=10, hydra_high_water=-5)

    def test_inverted_hydra_watermarks_rejected(self):
        with pytest.raises(ValueError, match="low <= high"):
            ScenarioConfig(hydra_heads=2, hydra_low_water=200, hydra_high_water=100)

    def test_watermarks_ignored_without_hydra(self):
        # no heads deployed: the watermark fields are dormant, not validated
        config = ScenarioConfig(hydra_heads=0, hydra_low_water=None, hydra_high_water=None)
        assert config.hydra_heads == 0

    def test_nonpositive_crawl_interval_rejected(self):
        with pytest.raises(ValueError, match="crawl_interval"):
            ScenarioConfig(run_crawler=True, crawl_interval=0.0)


class TestScaleWatermarksHelper:
    """One shared scaling helper behind every catalog entry."""

    def test_floor_and_ordering(self):
        low, high = scale_watermarks(600, 900, 10)
        assert low == 20 and high > low
        low_big, high_big = scale_watermarks(600, 900, 60_000)
        assert low_big > low and high_big > high

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            scale_watermarks(600, 900, 0)
        with pytest.raises(ValueError):
            scale_watermarks(0, 900, 100)
        with pytest.raises(ValueError):
            scale_watermarks(900, 600, 100)
