"""Tests for the meta-data analysis (Fig. 3/4, Table III, protocol flapping)."""

from repro.core.metadata import (
    ProtocolBreakdown,
    agent_breakdown,
    analyze_metadata,
    protocol_breakdown,
    protocol_flaps,
    version_changes,
)
from repro.core.records import ChangeLog, MeasurementDataset, MetaChangeRecord, PeerRecord
from repro.libp2p.protocols import AUTONAT, KAD_DHT, SBPTP


class TestAgentBreakdown:
    def test_composition_counts(self, tiny_dataset):
        breakdown = agent_breakdown(tiny_dataset)
        assert breakdown.goipfs_peers == 4
        assert breakdown.missing_peers == 1
        assert breakdown.hydra_peers == 0
        assert breakdown.total_peers == tiny_dataset.pid_count()

    def test_goipfs_grouped_by_release(self, tiny_dataset):
        breakdown = agent_breakdown(tiny_dataset)
        assert breakdown.grouped.get("0.11.0") == 4
        assert breakdown.grouped.get("missing") == 1

    def test_group_threshold_folds_rare_agents(self):
        dataset = MeasurementDataset(label="x", started_at=0.0, ended_at=1.0)
        for i in range(5):
            dataset.peers[f"p{i}"] = PeerRecord(f"p{i}", 0.0, 1.0, agent_version="go-ipfs/0.11.0")
        dataset.peers["rare"] = PeerRecord("rare", 0.0, 1.0, agent_version="exotic-agent/1.0")
        grouped = agent_breakdown(dataset, group_threshold=1).grouped
        assert "exotic-agent/1.0" not in grouped
        assert grouped["other"] == 1

    def test_hydra_and_crawler_classification(self):
        dataset = MeasurementDataset(label="x", started_at=0.0, ended_at=1.0)
        dataset.peers["h"] = PeerRecord("h", 0.0, 1.0, agent_version="hydra-booster/0.7.4")
        dataset.peers["c"] = PeerRecord("c", 0.0, 1.0, agent_version="nebula-crawler/1.0.0")
        dataset.peers["o"] = PeerRecord("o", 0.0, 1.0, agent_version="go-ethereum/v1.10.13")
        breakdown = agent_breakdown(dataset)
        assert breakdown.hydra_peers == 1
        assert breakdown.crawler_peers == 1
        assert breakdown.other_peers == 1


class TestProtocolBreakdown:
    def test_counts(self, tiny_dataset):
        breakdown = protocol_breakdown(tiny_dataset)
        assert breakdown.peers_with_protocols == 4       # once2 has no protocols
        assert breakdown.kad_support == 2                # heavy1, light1
        assert breakdown.bitswap_support == 4
        assert breakdown.histogram[KAD_DHT] == 2

    def test_top_protocols_break_ties_by_name(self):
        # inserted out of name order, as iteration over a salted frozenset may
        breakdown = ProtocolBreakdown(
            histogram={"/c": 2, "/b": 5, "/z": 2, "/a": 2, "/y": 1}
        )
        assert breakdown.top_protocols(4) == [("/b", 5), ("/a", 2), ("/c", 2), ("/z", 2)]

    def test_storm_anomaly_detection(self):
        dataset = MeasurementDataset(label="x", started_at=0.0, ended_at=1.0)
        dataset.peers["storm"] = PeerRecord(
            "storm", 0.0, 1.0, agent_version="go-ipfs/0.8.0/abc",
            protocols={KAD_DHT, SBPTP},
        )
        breakdown = protocol_breakdown(dataset)
        assert breakdown.goipfs_without_bitswap == 1
        assert breakdown.goipfs_with_sbptp == 1


class TestVersionChanges:
    def test_table_iii_classification(self, tiny_dataset):
        report = version_changes(tiny_dataset)
        assert report.upgrades == 1          # heavy1 0.11.0 -> 0.12.0
        assert report.downgrades == 1        # normal1 0.11.0 -> 0.10.0
        assert report.changes == 1           # light1 commit change
        assert report.total == 3
        assert report.main_to_main == 3

    def test_first_agent_learning_is_not_a_change(self, tiny_dataset):
        # heavy1's None -> agent transition must not be counted
        report = version_changes(tiny_dataset)
        assert report.total == 3

    def test_dirty_transitions(self):
        dataset = MeasurementDataset(label="x", started_at=0.0, ended_at=1.0)
        dataset.changes = ChangeLog([
            MetaChangeRecord(
                1.0, "a", "agent", "go-ipfs/0.11.0/abc-dirty", "go-ipfs/0.11.0/def-dirty"
            ),
            MetaChangeRecord(2.0, "b", "agent", "go-ipfs/0.11.0/abc-dirty", "go-ipfs/0.12.0/def"),
            MetaChangeRecord(3.0, "c", "agent", "go-ipfs/0.11.0/abc", "go-ipfs/0.10.0/def-dirty"),
        ])
        report = version_changes(dataset)
        assert report.dirty_to_dirty == 1
        assert report.dirty_to_main == 1
        assert report.main_to_dirty == 1

    def test_non_goipfs_switch_is_no_release_change(self):
        dataset = MeasurementDataset(label="x", started_at=0.0, ended_at=1.0)
        dataset.changes = ChangeLog([
            MetaChangeRecord(1.0, "a", "agent", "storm", "go-ipfs/0.11.0/abc"),
            MetaChangeRecord(2.0, "b", "agent", "storm", "other-agent"),
            MetaChangeRecord(3.0, "c", "agent", "go-ipfs/0.11.0/abc", "storm"),
        ])
        report = version_changes(dataset)
        assert report.total == 0
        assert report.main_to_main + report.main_to_dirty == 0
        assert report.dirty_to_main + report.dirty_to_dirty == 0


class TestProtocolFlaps:
    def test_kad_flap_counting(self, tiny_dataset):
        report = protocol_flaps(tiny_dataset, KAD_DHT)
        assert report.peers == 1             # light1
        assert report.changes == 2           # removed then re-added
        assert report.changes_per_peer == 2.0

    def test_autonat_flap_counting(self, tiny_dataset):
        report = protocol_flaps(tiny_dataset, AUTONAT)
        assert report.peers == 1             # normal1
        assert report.changes == 1


class TestFullReport:
    def test_analyze_metadata_combines_everything(self, tiny_dataset):
        report = analyze_metadata(tiny_dataset)
        assert report.label == tiny_dataset.label
        assert report.agents.goipfs_peers == 4
        assert report.versions.total == 3
        assert report.kad_flaps.peers == 1
        assert report.agents.missing_peers == 1

    def test_scenario_metadata_shape(self, small_scenario_result):
        dataset = small_scenario_result.dataset("go-ipfs")
        report = analyze_metadata(dataset)
        # go-ipfs dominates the agent mix; some peers never complete identify
        assert report.agents.goipfs_peers > report.agents.other_peers
        assert report.agents.missing_peers >= 0
        assert report.protocols.kad_support > 0
        # protocol support never exceeds the number of peers with protocols
        assert report.protocols.bitswap_support <= report.protocols.peers_with_protocols
