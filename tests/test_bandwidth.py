"""Tests for the data-plane bandwidth model (:mod:`repro.bandwidth`).

Five layers of coverage:

* config validation — :class:`BandwidthConfig` rejects a non-positive uplink
  scale, and the :class:`ContentRoutingConfig` additions (block-size
  distribution, ``republish_interval``) name the offending field and value in
  every rejection,
* catalog sizes — per-item block sizes draw deterministically from their own
  seed stream, untouched by (and not touching) the workload RNG,
* queue mechanics — FIFO ordering via the ``busy_until`` frontier, the
  RTT + serialization + queueing latency decomposition, plan/commit
  accounting, timeouts, and per-node uplink utilization,
* identity-by-default — ``bandwidth=None`` keeps the zero-size fabric: no
  runtime, no draws, byte-identical summaries (the fixed-seed goldens in
  ``test_scenarios.py`` pin the whole catalog side), and
* scenario-level effects and determinism — the registered bandwidth scenarios
  actually transfer, their transfer logs replay identically per seed
  (hypothesis pins the stream discipline), and the consolidated scenario
  ``overrides`` mapping validates keys end to end through the sweep CLI.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bandwidth.config import CLASSES, MB, TRANSFER_TIMEOUT, BandwidthConfig
from repro.bandwidth.runtime import BandwidthRuntime, PeerLink
from repro.scenarios.registry import (
    UnknownOverrideError,
    build_scenario_config,
    override_parameters,
    run_scenario_by_name,
    scenario,
)
from repro.simulation.content import ContentRoutingConfig, ZipfCatalog
from repro.simulation.scenario import Scenario
from repro.sweep import main, parse_override, plan_cell, summarize_cell



def _runtime(config=None, seed=7):
    return BandwidthRuntime(config or BandwidthConfig(), seed)


class TestBandwidthConfigValidation:
    def test_defaults_are_valid(self):
        BandwidthConfig()
        assert sum(cls.share for cls in CLASSES) == pytest.approx(1.0)

    def test_class_mix_validated(self):
        # the one class mix: distinct names, positive rates and shares
        assert len({cls.name for cls in CLASSES}) == len(CLASSES)
        assert all(cls.up > 0 and cls.down > 0 and cls.share > 0 for cls in CLASSES)

    def test_knobs_validated(self):
        with pytest.raises(ValueError, match="uplink_scale must be positive, got 0.0"):
            BandwidthConfig(uplink_scale=0.0)


class TestContentConfigValidation:
    def test_rejections_name_field_and_value(self):
        with pytest.raises(
            ValueError, match="republish_interval must be positive or None, got 0"
        ):
            ContentRoutingConfig(republish_interval=0)

    def test_block_size_classes_validated(self):
        with pytest.raises(ValueError, match="block_size_classes must be None"):
            ContentRoutingConfig(block_size_classes=())
        with pytest.raises(ValueError, match="sizes must be positive, got 0"):
            ContentRoutingConfig(block_size_classes=((0, 1.0),))
        with pytest.raises(ValueError, match="weights must be positive, got -1.0"):
            ContentRoutingConfig(block_size_classes=((16_000, -1.0),))
        ContentRoutingConfig(block_size_classes=((16_000, 1.0), (4_000_000, 0.5)))


class TestCatalogSizes:
    def test_default_sizes_are_the_stored_payload(self):
        catalog = ZipfCatalog(8)
        for item in range(8):
            assert catalog.size(item) == len(catalog.block(item))

    def test_drawn_sizes_come_from_the_class_set(self):
        classes = ((16_000, 0.5), (4_000_000, 0.5))
        catalog = ZipfCatalog(200, size_classes=classes)
        sizes = {catalog.size(item) for item in range(200)}
        assert sizes == {16_000, 4_000_000}

    def test_sizes_deterministic_per_seed_and_independent_of_workload_rng(self):
        classes = ((16_000, 0.45), (262_144, 0.3), (4_000_000, 0.25))
        a = ZipfCatalog(100, size_classes=classes)
        # b samples heavily from the workload RNG before reading any size
        b = ZipfCatalog(100, size_classes=classes)
        workload = random.Random(9)
        for _ in range(500):
            b.sample(workload)
        assert [a.size(i) for i in range(100)] == [b.size(i) for i in range(100)]

    def test_invalid_size_classes_rejected(self):
        with pytest.raises(ValueError, match="sizes must be positive"):
            ZipfCatalog(4, size_classes=((-1, 1.0),))
        with pytest.raises(ValueError, match="weights must be positive"):
            ZipfCatalog(4, size_classes=((16_000, 0.0),))


class TestRuntimeAssignment:
    def test_assignment_is_deterministic(self):
        a = _runtime()
        b = _runtime()
        links_a = [a.assign_peer() for _ in range(200)]
        links_b = [b.assign_peer() for _ in range(200)]
        assert [(link.cls, link.up, link.down) for link in links_a] == [
            (link.cls, link.up, link.down) for link in links_b
        ]
        assert a.stats.class_counts == b.stats.class_counts
        assert sum(a.stats.class_counts.values()) == a.stats.peers == 200

    def test_exempt_peers_draw_but_get_the_fastest_uplink(self):
        runtime = _runtime()
        links = [runtime.assign_peer(exempt=True) for _ in range(20)]
        fastest = max(CLASSES, key=lambda cls: cls.up)
        assert all(CLASSES[link.cls] is fastest and link.up == fastest.up for link in links)
        # the stream advanced identically: a non-exempt runtime's 21st draw
        # matches this one's
        other = _runtime()
        for _ in range(20):
            other.assign_peer()
        assert runtime.assign_peer().cls == other.assign_peer().cls

    def test_scales_multiply_the_class_rates(self):
        runtime = BandwidthRuntime(BandwidthConfig(uplink_scale=0.25), 7)
        link = runtime.assign_peer(exempt=True)
        assert link.up == pytest.approx(125 * MB * 0.25)
        assert link.down == pytest.approx(125 * MB)

    def test_shares_roughly_respected(self):
        runtime = _runtime()
        for _ in range(2000):
            runtime.assign_peer()
        assert runtime.stats.class_counts["cable"] / 2000 == pytest.approx(
            0.35, abs=0.05
        )


class TestQueueing:
    def test_latency_decomposes_rtt_serialization_queueing(self):
        runtime = _runtime()
        src = PeerLink(0, up=1 * MB, down=10 * MB)
        dst = PeerLink(0, up=1 * MB, down=10 * MB)
        plan = runtime.plan_transfer(0.0, src, dst, 2_000_000, rtt=0.25)
        # idle links: no queueing, serialization at the bottleneck (src uplink)
        assert plan.queueing == 0.0
        assert plan.serialization == pytest.approx(2.0)
        assert plan.rtt == 0.25
        assert plan.total == pytest.approx(2.25)
        assert runtime.commit_transfer(0.0, plan) == pytest.approx(2.25)

    def test_fifo_ordering_queues_behind_the_frontier(self):
        runtime = _runtime()
        src = PeerLink(0, up=1 * MB, down=10 * MB)
        first_dst = PeerLink(0, up=1 * MB, down=10 * MB)
        second_dst = PeerLink(0, up=1 * MB, down=10 * MB)
        first = runtime.plan_transfer(0.0, src, first_dst, 1_000_000)
        runtime.commit_transfer(0.0, first)
        # the provider's uplink is busy until t=1: a transfer planned at
        # t=0.25 waits the 0.75 s residual, one planned at t=2 doesn't
        second = runtime.plan_transfer(0.25, src, second_dst, 1_000_000)
        assert second.queueing == pytest.approx(0.75)
        runtime.commit_transfer(0.25, second)
        third = runtime.plan_transfer(2.5, src, second_dst, 1_000_000)
        assert third.queueing == 0.0
        # commits stacked the frontier FIFO: 1 s + 1 s back-to-back
        assert src.up_busy_until == pytest.approx(2.0)
        assert src.up_busy_seconds == pytest.approx(2.0)

    def test_receiver_downlink_also_gates(self):
        runtime = _runtime()
        fast_src = PeerLink(0, up=100 * MB, down=100 * MB)
        dst = PeerLink(0, up=1 * MB, down=10 * MB)
        plan = runtime.plan_transfer(0.0, fast_src, dst, 10_000_000)
        # bottleneck is the 10 MB/s downlink, not the 100 MB/s uplink
        assert plan.serialization == pytest.approx(1.0)
        runtime.commit_transfer(0.0, plan)
        queued = runtime.plan_transfer(0.0, fast_src, dst, 10_000_000)
        assert queued.queueing == pytest.approx(1.0)

    def test_hopeless_transfers_time_out_without_occupying_links(self):
        runtime = _runtime()
        src = PeerLink(0, up=1 * MB, down=10 * MB)
        dst = PeerLink(0, up=1 * MB, down=10 * MB)
        # 1 MB/s for just over the timeout's worth of bytes
        too_large = int(TRANSFER_TIMEOUT * MB) + 1
        assert runtime.plan_transfer(0.0, src, dst, int(TRANSFER_TIMEOUT * MB)) is not None
        assert runtime.plan_transfer(0.0, src, dst, too_large) is None
        assert runtime.stats.transfers_timed_out == 1
        assert runtime.stats.transfers == 0
        assert src.up_busy_until == 0.0
        assert dst.down_busy_until == 0.0
        assert runtime.stats.timeout_rate == 1.0

    def test_commit_accumulates_stats_and_samples(self):
        runtime = _runtime()
        src = PeerLink(0, up=1 * MB, down=10 * MB)
        dst = PeerLink(0, up=1 * MB, down=10 * MB)
        for now in (0.0, 0.5):
            plan = runtime.plan_transfer(now, src, dst, 1_000_000, rtt=0.1)
            runtime.commit_transfer(now, plan)
        stats = runtime.stats
        assert stats.transfers == 2
        assert stats.bytes_transferred == 2_000_000
        assert stats.rtt_total == pytest.approx(0.2)
        assert stats.serialization_total == pytest.approx(2.0)
        assert stats.queueing_total == pytest.approx(0.5)
        assert stats.latency_total == pytest.approx(2.7)
        assert stats.queueing_share == pytest.approx(0.5 / 2.7)
        assert stats.mean_transfer_time == pytest.approx(1.35)
        assert stats.transfer_sizes == [1_000_000, 1_000_000]
        assert stats.transfer_queueings == pytest.approx([0.0, 0.5])

    def test_sample_lists_are_bounded(self):
        runtime = _runtime()
        runtime.stats.max_transfer_samples = 3
        src = PeerLink(0, up=1 * MB, down=10 * MB)
        for _ in range(5):
            plan = runtime.plan_transfer(0.0, src, PeerLink(0, 1 * MB, 10 * MB), 1000)
            runtime.commit_transfer(0.0, plan)
        assert runtime.stats.transfers == 5
        assert len(runtime.stats.transfer_sizes) == 3

    def test_utilization_counts_busy_links_only(self):
        runtime = _runtime()
        busy = runtime.assign_peer(exempt=True)
        runtime.assign_peer(exempt=True)  # idle: never reported
        plan = runtime.plan_transfer(0.0, busy, PeerLink(0, 1 * MB, 10 * MB), 10 * MB)
        runtime.commit_transfer(0.0, plan)
        stats = runtime.finalize(duration=10.0)
        assert stats.utilization_samples == [pytest.approx(0.1)]
        # a window shorter than the busy time clamps to 1.0
        assert runtime.finalize(duration=0.5).utilization_samples[-1] == 1.0


class TestControlPlane:
    class FakeClock:
        elapsed = 0.0

    class FakePeer:
        def __init__(self, link):
            self.link = link

    def test_timed_rpc_charges_both_uplinks(self):
        runtime = _runtime()
        clock = self.FakeClock()
        src = self.FakePeer(PeerLink(0, up=1 * MB, down=10 * MB))
        dst = self.FakePeer(PeerLink(0, up=1 * MB, down=10 * MB))
        assert runtime.on_rpc(src, dst, clock)
        expected = (2048 + 256) / (1 * MB)
        assert clock.elapsed == pytest.approx(expected)
        assert runtime.stats.control_rpcs == 1
        assert runtime.stats.control_bytes == 2048 + 256

    def test_vantage_sources_pay_nothing(self):
        runtime = _runtime()
        clock = self.FakeClock()
        dst = self.FakePeer(PeerLink(0, up=1 * MB, down=10 * MB))
        runtime.on_rpc(None, dst, clock)
        assert clock.elapsed == pytest.approx(2048 / (1 * MB))

    def test_untimed_rpcs_only_count_bytes(self):
        runtime = _runtime()
        assert runtime.on_rpc(None, None)
        assert runtime.stats.control_rpcs == 1

    def test_identify_serializes_on_the_peer_uplink(self):
        runtime = _runtime()
        peer = self.FakePeer(PeerLink(0, up=1 * MB, down=10 * MB))
        assert runtime.identify_delay("go-ipfs", peer) == pytest.approx(2500 / (1 * MB))
        assert runtime.stats.identify_payloads == 1
        assert runtime.stats.identify_bytes == 2500


class TestIdentityByDefault:
    def test_plain_scenarios_carry_no_bandwidth(self):
        result = run_scenario_by_name("p1", n_peers=40, duration_days=0.01, seed=5)
        assert result.bandwidth is None
        summary = summarize_cell(plan_cell("p1", 40, 0.01, 5))
        assert summary["bandwidth"] is None

    def test_no_config_means_no_runtime(self):
        config = build_scenario_config("p1", n_peers=30, duration_days=0.01, seed=5)
        scenario_run = Scenario(config)
        scenario_run.run()
        assert scenario_run.network.bandwidth is None


class TestScenarioEffects:
    @pytest.fixture(scope="class")
    def mixed_result(self):
        return run_scenario_by_name(
            "mixed-size-catalog", n_peers=60, duration_days=0.02, seed=11
        )

    def test_mixed_catalog_transfers_and_decomposes(self, mixed_result):
        stats = mixed_result.bandwidth
        assert stats.transfers > 0
        assert stats.bytes_transferred > 0
        assert stats.peers == 60
        assert sum(stats.class_counts.values()) == 60
        # the recorded samples reproduce the totals: the decomposition is
        # exact, not an estimate
        assert sum(stats.transfer_rtts) == pytest.approx(stats.rtt_total)
        assert sum(stats.transfer_serializations) == pytest.approx(
            stats.serialization_total
        )
        assert sum(stats.transfer_queueings) == pytest.approx(stats.queueing_total)
        assert stats.control_rpcs > 0 and stats.identify_payloads > 0

    def test_transfer_logs_replay_identically_per_seed(self, mixed_result):
        again = run_scenario_by_name(
            "mixed-size-catalog", n_peers=60, duration_days=0.02, seed=11
        )
        for field in (
            "transfer_sizes",
            "transfer_rtts",
            "transfer_serializations",
            "transfer_queueings",
        ):
            assert getattr(again.bandwidth, field) == getattr(
                mixed_result.bandwidth, field
            )
        other_seed = run_scenario_by_name(
            "mixed-size-catalog", n_peers=60, duration_days=0.02, seed=12
        )
        assert (
            other_seed.bandwidth.transfer_sizes
            != mixed_result.bandwidth.transfer_sizes
        )

    def test_starved_relays_pay_real_serialization(self):
        result = run_scenario_by_name(
            "bandwidth-starved-relays", n_peers=60, duration_days=0.02, seed=11
        )
        stats = result.bandwidth
        assert stats.transfer_attempts > 0
        assert stats.serialization_total > 0.0

    def test_cell_summary_carries_the_bandwidth_block(self):
        summary = summarize_cell(plan_cell("mixed-size-catalog", 60, 0.02, 11))
        block = summary["bandwidth"]
        assert block["transfers"] > 0
        assert set(block["transfer_time"]) == {"p50", "p90", "p99"}
        assert block["queueing_share"] >= 0.0
        json.dumps(block)  # serialisable as-is


class TestOverrides:
    def test_override_keys_derive_from_the_builder(self):
        spec = scenario("mixed-size-catalog")
        assert sorted(override_parameters(spec.builder)) == ["size_scale", "uplink_scale"]

    def test_unknown_overrides_name_the_known_keys(self):
        spec = scenario("mixed-size-catalog")
        with pytest.raises(UnknownOverrideError, match="size_scale, uplink_scale"):
            spec.validate_overrides({"blocksize": 4})
        with pytest.raises(UnknownOverrideError, match="mixed-size-catalog"):
            spec.validate_overrides({"blocksize": 4})

    def test_overrides_reach_the_builder(self):
        config = build_scenario_config(
            "mixed-size-catalog",
            n_peers=40,
            duration_days=0.01,
            seed=3,
            overrides={"uplink_scale": 0.5, "size_scale": 2.0},
        )
        assert config.population.bandwidth.uplink_scale == 0.5
        plain = build_scenario_config(
            "mixed-size-catalog", n_peers=40, duration_days=0.01, seed=3
        )
        scale = {
            size
            for size, _ in config.content.block_size_classes
        }
        assert scale == {2 * size for size, _ in plain.content.block_size_classes}

    def test_parse_override_coerces_values(self):
        assert parse_override("uplink_scale=0.5") == ("uplink_scale", 0.5)
        assert parse_override("n_items=8") == ("n_items", 8)
        assert parse_override("flag=true") == ("flag", True)
        assert parse_override("name=mixed") == ("name", "mixed")
        with pytest.raises(Exception, match="expected key=value"):
            parse_override("no-equals-sign")

    def test_cli_rejects_unknown_overrides_with_exit_2(self, tmp_path, capsys):
        exit_code = main(
            [
                "--scenarios", "mixed-size-catalog",
                "--seeds", "7",
                "--peers", "40",
                "--duration", "0.01d",
                "--set", "blocksize=4",
                "--out", str(tmp_path),
            ]
        )
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "blocksize" in err and "size_scale" in err

    def test_cli_records_overrides_in_the_cell(self, tmp_path):
        exit_code = main(
            [
                "--scenarios", "mixed-size-catalog",
                "--seeds", "7",
                "--peers", "40",
                "--duration", "0.01d",
                "--set", "uplink_scale=0.5",
                "--out", str(tmp_path),
            ]
        )
        assert exit_code == 0
        cell = json.loads(
            (tmp_path / "mixed-size-catalog__n40__s7.json").read_text()
        )
        assert cell["overrides"] == {"uplink_scale": 0.5}
        assert cell["bandwidth"]["peers"] == 40


class TestPropertyBased:
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        peers=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=25, deadline=None)
    def test_assignments_deterministic_per_seed(self, seed, peers):
        a = BandwidthRuntime(BandwidthConfig(), seed)
        b = BandwidthRuntime(BandwidthConfig(), seed)
        for _ in range(peers):
            la = a.assign_peer()
            lb = b.assign_peer()
            assert (la.cls, la.up, la.down) == (lb.cls, lb.up, lb.down)
        assert a.stats.class_counts == b.stats.class_counts

    @given(
        # at most 50 s serialization + 5 s RTT + 60 s queueing: inside the
        # transfer timeout, so every plan is granted
        size=st.integers(min_value=1, max_value=50 * 10**6),
        rtt=st.floats(min_value=0.0, max_value=5.0),
        now=st.floats(min_value=0.0, max_value=1000.0),
        wait=st.floats(min_value=-1000.0, max_value=60.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_plans_decompose_exactly(self, size, rtt, now, wait):
        runtime = BandwidthRuntime(BandwidthConfig(), 1)
        busy = max(0.0, now + wait)
        src = PeerLink(0, up=1 * MB, down=10 * MB)
        src.up_busy_until = busy
        plan = runtime.plan_transfer(now, src, PeerLink(0, 1 * MB, 10 * MB), size, rtt)
        assert plan.queueing == max(0.0, busy - now)
        assert plan.serialization == size / (1 * MB)
        assert plan.total == pytest.approx(plan.rtt + plan.queueing + plan.serialization)
