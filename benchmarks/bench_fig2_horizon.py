"""Fig. 2 — passive vs active measurement horizons.

Regenerates the per-period comparison of observed PIDs: total and DHT-Server
counts for the passive vantage points (go-ipfs, hydra union) next to the
active crawler's min/max discovered nodes.
"""

from repro.analysis.tables import TextTable
from repro.core.horizon import compare_horizons
from repro.experiments.paper_values import PAPER

from conftest import scale_note


def build_comparisons(results):
    comparisons = {}
    for period_id, result in results.items():
        labels = [label for label in ("go-ipfs", "hydra") if label in result.datasets]
        comparisons[period_id] = compare_horizons(
            result.datasets, crawler_range=result.crawls.range(), labels=labels
        )
    return comparisons


def test_fig2_measurement_horizon(benchmark, p0_result, p2_result, p3_result, p4_result):
    results = {"P0": p0_result, "P2": p2_result, "P3": p3_result, "P4": p4_result}
    comparisons = benchmark(build_comparisons, results)

    print()
    table = TextTable(
        headers=[
            "Period", "Vantage", "total PIDs", "DHT-Server", "DHT-Client",
            "crawler min", "crawler max",
        ],
        title="Fig. 2 — measurement horizons (measured)",
    )
    for period_id, comparison in sorted(comparisons.items()):
        crawler = comparison.crawler
        for entry in comparison.entries:
            table.add_row(
                period_id, entry.label, entry.total_pids, entry.dht_server_pids,
                entry.dht_client_pids,
                crawler.min_discovered if crawler and crawler.crawls else "-",
                crawler.max_discovered if crawler and crawler.crawls else "-",
            )
    print(table.render())
    print(
        f"paper: passive vantage points saw {PAPER.passive_pid_range[0]:,}–"
        f"{PAPER.passive_pid_range[1]:,} PIDs; crawler ranges ~10k–25k (DHT-Servers only)"
    )
    for period_id, result in results.items():
        print(f"{period_id}: {scale_note(result)}")

    # Shape 1: passive vantage points observe DHT-Clients, the crawler cannot.
    for comparison in comparisons.values():
        assert comparison.passive_sees_clients()

    # Shape 2: total PIDs exceed DHT-Server PIDs at every passive vantage point.
    for comparison in comparisons.values():
        for entry in comparison.entries:
            assert entry.total_pids >= entry.dht_server_pids

    # Shape 3: over a multi-day period the historic peerstore of the passive
    # node accumulates at least as many DHT-Servers as one crawl snapshot.
    p4 = comparisons["P4"]
    exceeded = p4.passive_servers_exceed_crawler_min("go-ipfs")
    if exceeded is not None:
        assert p4.entry("go-ipfs").dht_server_pids > 0
        assert exceeded or (
            p4.entry("go-ipfs").dht_server_pids >= 0.8 * p4.crawler.min_discovered
        )

    # Shape 4: the hydra union covers at least as much as the go-ipfs node in P0.
    p0 = comparisons["P0"]
    assert p0.entry("hydra").total_pids >= 0.8 * p0.entry("go-ipfs").total_pids
