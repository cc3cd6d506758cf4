"""End-to-end integration tests: scenario → datasets → every analysis.

These tests exercise the full pipeline the benchmarks use and check the
*qualitative* findings of the paper on a small simulated network:
churn dominated by trimming, passive horizons that include clients, PID counts
exceeding simultaneous connections, and a classification whose heavy class is a
small core.
"""

from repro.analysis.views import VIEWS
from repro.core.churn import connection_statistics, trim_share
from repro.core.horizon import compare_horizons
from repro.core.metadata import analyze_metadata
from repro.core.netsize import connection_cdfs, estimate_network_size
from repro.core.timeseries import connections_over_time, pids_over_time


class TestEndToEndPipeline:
    def test_every_analysis_runs_on_every_dataset(self, small_scenario_result):
        for label, dataset in small_scenario_result.datasets.items():
            churn = connection_statistics(dataset)
            meta = analyze_metadata(dataset)
            sizes = estimate_network_size(dataset)
            cdfs = connection_cdfs(dataset)
            assert churn.all_stats.count >= 0
            assert meta.agents.total_peers == dataset.pid_count()
            assert sizes.total_pids == dataset.pid_count()
            assert set(cdfs) == {"all", "dht-server", "dht-client"}

    def test_trimming_dominates_connection_closes(self, small_scenario_result):
        report = connection_statistics(small_scenario_result.dataset("go-ipfs"))
        # The paper's headline churn finding: connection churn is driven by
        # trimming, not by node churn.
        assert trim_share(report) > 0.3

    def test_passive_horizon_includes_clients_crawler_does_not(self, small_scenario_result):
        comparison = compare_horizons(
            {
                "go-ipfs": small_scenario_result.dataset("go-ipfs"),
                "hydra": small_scenario_result.dataset("hydra"),
            },
            crawler_range=small_scenario_result.crawls.range(),
        )
        assert comparison.passive_sees_clients()
        assert comparison.crawler is not None
        assert comparison.crawler.crawls >= 1

    def test_hydra_union_at_least_matches_best_head(self, small_scenario_result):
        union = small_scenario_result.dataset("hydra")
        heads = small_scenario_result.hydra_heads()
        assert union.pid_count() >= max(h.pid_count() for h in heads)

    def test_pids_exceed_simultaneous_connections(self, small_scenario_result):
        assert VIEWS["fig6"](small_scenario_result)["pids_per_connection"] > 1.0

    def test_pid_growth_is_monotone(self, small_scenario_result):
        series = pids_over_time(small_scenario_result.dataset("go-ipfs"), step=1800.0)
        values = [v for _, v in series]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_connection_series_has_expected_sampling(self, small_scenario_result):
        series = connections_over_time(small_scenario_result.dataset("go-ipfs"), limit=None)
        assert len(series) == len(small_scenario_result.dataset("go-ipfs").snapshots)

    def test_heavy_class_is_a_minority_core(self, small_scenario_result):
        report = estimate_network_size(small_scenario_result.dataset("go-ipfs"))
        heavy = report.classification.core_size
        classified = report.classification.classified_peers
        # a quarter-day run cannot produce >24 h connections, so heavy must be 0;
        # the classes still partition the classified peers
        assert heavy == 0
        assert sum(c.peers for c in report.classification.counts.values()) == classified

    def test_multiaddr_grouping_collapses_shared_ips(self, small_scenario_result):
        report = estimate_network_size(small_scenario_result.dataset("hydra"))
        assert report.multiaddr.groups <= report.multiaddr.connected_pids
        assert report.multiaddr.largest_group_size >= 1



class TestClientVantage:
    def test_p3_client_sees_fewer_peers_than_p2_server(
        self, small_scenario_result, small_p3_result
    ):
        server_pids = small_scenario_result.dataset("go-ipfs").pid_count()
        client_pids = small_p3_result.dataset("go-ipfs").pid_count()
        assert client_pids < server_pids

    def test_p3_durations_are_short(self, small_p3_result, small_scenario_result):
        p3 = connection_statistics(small_p3_result.dataset("go-ipfs"))
        p2 = connection_statistics(small_scenario_result.dataset("go-ipfs"))
        assert p3.peer_stats.average < p2.peer_stats.average
