"""Tests for the passive-vs-active horizon comparison (Fig. 2)."""

import pytest

from repro.core.horizon import compare_horizons, horizon_entry
from repro.core.records import MeasurementDataset, PeerRecord
from repro.crawler.monitor import CrawlRange
from repro.libp2p.protocols import IPFS_ID, KAD_DHT


def make_dataset(label, servers, clients, unknown):
    dataset = MeasurementDataset(label=label, started_at=0.0, ended_at=100.0)
    for i in range(servers):
        dataset.peers[f"s{i}"] = PeerRecord(f"s{i}", 0.0, 1.0, protocols={KAD_DHT, IPFS_ID})
    for i in range(clients):
        dataset.peers[f"c{i}"] = PeerRecord(f"c{i}", 0.0, 1.0, protocols={IPFS_ID})
    for i in range(unknown):
        dataset.peers[f"u{i}"] = PeerRecord(f"u{i}", 0.0, 1.0)
    return dataset


class TestHorizonEntry:
    def test_counts(self):
        entry = horizon_entry(make_dataset("x", servers=5, clients=3, unknown=2))
        assert entry.total_pids == 10
        assert entry.dht_server_pids == 5
        assert entry.dht_client_pids == 3
        assert entry.role_unknown_pids == 2

    def test_empty_dataset(self):
        entry = horizon_entry(make_dataset("x", 0, 0, 0))
        assert entry.total_pids == 0


class TestComparison:
    def test_compare_selects_and_orders_labels(self):
        datasets = {
            "go-ipfs": make_dataset("go-ipfs", 5, 5, 0),
            "hydra": make_dataset("hydra", 8, 6, 1),
        }
        comparison = compare_horizons(datasets, labels=["hydra", "go-ipfs"])
        assert [e.label for e in comparison.entries] == ["hydra", "go-ipfs"]

    def test_passive_sees_clients(self):
        comparison = compare_horizons({"go-ipfs": make_dataset("go-ipfs", 5, 1, 0)})
        assert comparison.passive_sees_clients()
        comparison_no_clients = compare_horizons({"x": make_dataset("x", 5, 0, 0)})
        assert not comparison_no_clients.passive_sees_clients()

    def test_crawler_comparison(self):
        crawl_range = CrawlRange(
            crawls=3, min_reachable=3, max_reachable=5, min_discovered=4,
            max_discovered=6, union_discovered=7,
        )
        comparison = compare_horizons(
            {"go-ipfs": make_dataset("go-ipfs", 10, 5, 0)}, crawler_range=crawl_range
        )
        assert comparison.passive_servers_exceed_crawler_min("go-ipfs") is True

    def test_crawler_comparison_without_crawls(self):
        comparison = compare_horizons({"go-ipfs": make_dataset("go-ipfs", 10, 5, 0)})
        assert comparison.passive_servers_exceed_crawler_min("go-ipfs") is None

    def test_unknown_label_raises(self):
        comparison = compare_horizons({"a": make_dataset("a", 1, 1, 0)})
        with pytest.raises(KeyError):
            comparison.entry("missing")


class TestScenarioHorizon:
    def test_hydra_union_sees_at_least_as_much_as_single_head(self, small_scenario_result):
        datasets = small_scenario_result.datasets
        union = datasets["hydra"]
        head0 = datasets["hydra-H0"]
        assert union.pid_count() >= head0.pid_count()

    def test_crawler_is_bounded_by_server_population(self, small_scenario_result):
        # A crawler can only ever discover DHT-Servers, so the number of PIDs
        # it finds is bounded by the ground-truth server population (plus the
        # measurement identities it may stumble over while walking the DHT).
        assert small_scenario_result.crawls.snapshots
        crawl_range = small_scenario_result.crawls.range()
        n_servers = len(small_scenario_result.population.servers())
        n_identities = len(
            [label for label in small_scenario_result.datasets if label != "hydra"]
        )
        assert 0 < crawl_range.max_discovered <= n_servers + n_identities

    def test_passive_sees_clients_in_scenario(self, small_scenario_result):
        comparison = compare_horizons(
            {"go-ipfs": small_scenario_result.dataset("go-ipfs")},
            crawler_range=small_scenario_result.crawls.range(),
        )
        assert comparison.passive_sees_clients()
