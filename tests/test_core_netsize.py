"""Tests for the network-size estimators (Section V, Fig. 7, Table IV)."""

import pytest

from repro.core.classification import ClassificationThresholds, PeerClassLabel
from repro.core.netsize import (
    classify_peers,
    connection_cdfs,
    estimate_by_multiaddress,
    estimate_by_neighborhood_density,
    estimate_network_size,
    peer_connection_summaries,
)
from repro.core.records import ConnectionRecord, MeasurementDataset
from repro.kademlia.keys import KEY_BITS

HOUR = 3_600.0


class TestPeerSummaries:
    def test_summaries_hand_checked(self, tiny_dataset):
        summaries = peer_connection_summaries(tiny_dataset)
        assert summaries["light1"].connection_count == 4
        assert summaries["light1"].max_duration == 600.0
        assert summaries["heavy1"].max_duration == 30 * HOUR
        assert summaries["heavy1"].is_dht_server
        assert not summaries["normal1"].is_dht_server
        assert not summaries["once2"].role_known


class TestMultiaddrEstimate:
    def test_grouping_hand_checked(self, tiny_dataset):
        estimate = estimate_by_multiaddress(tiny_dataset)
        assert estimate.connected_pids == 5
        # IPs: 10.0.0.1, 10.0.0.2, 10.0.0.3 (light1+once1), 10.0.0.5
        assert estimate.distinct_ips == 4
        assert estimate.groups == 4
        assert estimate.singleton_groups == 3
        assert estimate.largest_group_size == 2
        assert estimate.largest_group_ip == "10.0.0.3"
        assert estimate.estimated_participants == 4

    def test_shared_ip_collapses_pids(self):
        dataset = MeasurementDataset(label="x", started_at=0.0, ended_at=10.0)
        for i in range(10):
            dataset.connections.append(
                ConnectionRecord(f"p{i}", "inbound", 0.0, 1.0, remote_ip="9.9.9.9")
            )
        estimate = estimate_by_multiaddress(dataset)
        assert estimate.connected_pids == 10
        assert estimate.groups == 1
        assert estimate.largest_group_size == 10

    def test_empty_dataset(self):
        estimate = estimate_by_multiaddress(
            MeasurementDataset(label="x", started_at=0.0, ended_at=1.0)
        )
        assert estimate.connected_pids == 0
        assert estimate.groups == 0


class TestClassificationEstimate:
    def test_table_iv_counts_hand_checked(self, tiny_dataset):
        estimate = classify_peers(tiny_dataset)
        assert estimate.classified_peers == 5
        assert estimate.count(PeerClassLabel.HEAVY).peers == 1
        assert estimate.count(PeerClassLabel.NORMAL).peers == 1
        assert estimate.count(PeerClassLabel.LIGHT).peers == 1
        assert estimate.count(PeerClassLabel.ONE_TIME).peers == 2
        assert estimate.count(PeerClassLabel.HEAVY).dht_servers == 1
        assert estimate.count(PeerClassLabel.LIGHT).dht_servers == 1
        assert estimate.count(PeerClassLabel.ONE_TIME).dht_servers == 0
        assert estimate.core_size == 1
        assert estimate.core_user_base == 0

    def test_rows_are_ordered_like_table_iv(self, tiny_dataset):
        rows = classify_peers(tiny_dataset).rows()
        assert [r[0] for r in rows] == ["heavy", "normal", "light", "one-time"]

    def test_custom_thresholds_shift_classes(self, tiny_dataset):
        lenient = ClassificationThresholds(
            heavy_duration=2.5 * HOUR, normal_duration=0.1 * HOUR
        )
        estimate = classify_peers(tiny_dataset, lenient)
        assert estimate.count(PeerClassLabel.HEAVY).peers == 2   # heavy1 + normal1


class TestConnectionCDFs:
    def test_cdf_anchor_points(self, tiny_dataset):
        cdfs = connection_cdfs(tiny_dataset)
        all_cdf = cdfs["all"]
        # 3 of 5 peers (light1, once1, once2) have max duration below one hour
        assert all_cdf.fraction_connected_less_than(HOUR) == pytest.approx(0.6)
        # only heavy1 exceeds 24 h
        assert all_cdf.fraction_connected_more_than(24 * HOUR) == pytest.approx(0.2)
        # 4 of 5 peers have at most 2 connections
        assert all_cdf.connection_count.fraction_at(2) == pytest.approx(0.8)

    def test_role_split(self, tiny_dataset):
        cdfs = connection_cdfs(tiny_dataset)
        assert len(cdfs["dht-server"].max_duration) == 2
        assert len(cdfs["dht-client"].max_duration) == 2
        assert len(cdfs["all"].max_duration) == 5


class TestDensityEstimateEdgeCases:
    """The rank-regression estimator at the edges of its sample window."""

    SPAN = float(1 << KEY_BITS)

    def _expected(self, distances):
        # Hand-computed least-squares fit through the origin:
        # N + 1 = sum(i^2) / sum(i * d_i / 2^256).
        numerator = sum((i + 1) ** 2 for i in range(len(distances)))
        denominator = sum((i + 1) * (d / self.SPAN) for i, d in enumerate(distances))
        return numerator / denominator - 1.0

    def test_fewer_samples_than_the_rank_window(self):
        # Five observed keys against k=20: the regression runs over the five
        # available ranks instead of padding or failing.
        target = 0
        keys = [1 << 200, 2 << 200, 3 << 200, 4 << 200, 5 << 200]
        estimate = estimate_by_neighborhood_density(keys, target, k=20)
        assert estimate.k == 20
        assert estimate.sample_size == 5
        assert estimate.estimate == pytest.approx(self._expected(sorted(keys)))

    def test_duplicate_distances(self):
        # Two peers at the same distance (distinct keys can share a distance
        # to a third target): both ranks enter the fit, no deduplication.
        target = 0
        keys = [7 << 100, 7 << 100, 9 << 100]
        estimate = estimate_by_neighborhood_density(keys, target, k=20)
        assert estimate.sample_size == 3
        assert estimate.estimate == pytest.approx(self._expected(sorted(keys)))

    def test_single_peer_neighborhood(self):
        target = 0
        key = 1 << 255
        estimate = estimate_by_neighborhood_density([key], target, k=20)
        assert estimate.sample_size == 1
        # One rank: N + 1 = 1 / (d / 2^256) = 2, so the estimate is 1 peer.
        assert estimate.estimate == pytest.approx(1.0)

    def test_no_samples(self):
        estimate = estimate_by_neighborhood_density([], target=123, k=20)
        assert estimate.sample_size == 0
        assert estimate.estimate == 0.0
        assert estimate.inflation_over(1000) == 0.0

    def test_all_keys_on_the_target(self):
        # Degenerate zero-distance neighbourhood: infinite density.
        estimate = estimate_by_neighborhood_density([42, 42], target=42)
        assert estimate.estimate == float("inf")

    def test_denser_neighborhood_estimates_larger_network(self):
        target = 0
        sparse = [i << 248 for i in range(1, 21)]
        dense = [i << 240 for i in range(1, 21)]
        sparse_est = estimate_by_neighborhood_density(sparse, target)
        dense_est = estimate_by_neighborhood_density(dense, target)
        assert dense_est.estimate > sparse_est.estimate
        assert sparse_est.inflation_over(100) == pytest.approx(
            sparse_est.estimate / 100
        )


class TestNetworkSizeReport:
    def test_combined_report(self, tiny_dataset):
        report = estimate_network_size(tiny_dataset)
        assert report.total_pids == 5
        assert report.estimated_network_size == 4
        assert report.core_network_size == 1
        assert report.peak_simultaneous_connections == 4
        assert report.pids_per_simultaneous_connection == pytest.approx(5 / 4)

    def test_scenario_estimates_are_consistent(self, small_scenario_result):
        dataset = small_scenario_result.dataset("go-ipfs")
        report = estimate_network_size(dataset)
        # IP grouping can only reduce the count of connected PIDs
        assert report.multiaddr.groups <= report.multiaddr.connected_pids
        # and the number of distinct observed IPs is at least the number of groups
        assert report.multiaddr.distinct_ips >= report.multiaddr.groups
        # every classified peer belongs to exactly one class
        total = sum(c.peers for c in report.classification.counts.values())
        assert total == report.classification.classified_peers
