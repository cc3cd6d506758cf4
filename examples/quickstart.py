#!/usr/bin/env python3
"""Quickstart: deploy a passive measurement node in a simulated IPFS network.

This example runs a small version of the paper's P2 measurement period
(relaxed connection-manager watermarks, go-ipfs DHT-Server plus a two-headed
hydra-booster), then prints the headline quantities the paper reports:
connection-churn statistics, the measurement horizon, and a first network-size
estimate.

Run with::

    python examples/quickstart.py
"""

from repro.analysis.tables import TextTable, format_count, format_seconds
from repro.core.churn import connection_statistics, trim_share
from repro.core.horizon import compare_horizons
from repro.core.netsize import estimate_network_size
from repro.scenarios import run_scenario_by_name

import os

#: fast-mode knobs: CI's examples-smoke job shrinks every example through
#: these without touching the documented default scale
N_PEERS = int(os.environ.get("REPRO_EXAMPLE_PEERS", "600"))
DURATION_DAYS = float(os.environ.get("REPRO_EXAMPLE_DAYS", "0.5"))


def main() -> None:
    print("Simulating measurement period P2 (go-ipfs server + 2 hydra heads + crawler)…")
    result = run_scenario_by_name("p2", n_peers=N_PEERS, duration_days=DURATION_DAYS, seed=42)

    # -- connection churn (Table II style) ---------------------------------------
    table = TextTable(
        headers=["Client", "Type", "Sum", "Avg.", "Median"],
        title="\nConnection statistics (Table II style)",
    )
    for label in ("go-ipfs", "hydra-H0", "hydra-H1"):
        report = connection_statistics(result.dataset(label))
        for stats in (report.all_stats, report.peer_stats):
            table.add_row(
                label, stats.kind, format_count(stats.count),
                format_seconds(stats.average), format_seconds(stats.median_value),
            )
    print(table.render())

    go_ipfs_report = connection_statistics(result.dataset("go-ipfs"))
    print(
        f"\nTrimming accounts for {trim_share(go_ipfs_report):.0%} of connection closes; "
        f"inbound:outbound = "
        f"{go_ipfs_report.inbound.count}:{go_ipfs_report.outbound.count}"
    )

    # -- measurement horizon (Fig. 2 style) -----------------------------------------
    comparison = compare_horizons(
        result.datasets, crawler_range=result.crawls.range(), labels=["go-ipfs", "hydra"]
    )
    horizon = TextTable(
        headers=["Vantage", "total PIDs", "DHT-Server", "DHT-Client"],
        title="\nMeasurement horizon (Fig. 2 style)",
    )
    for entry in comparison.entries:
        horizon.add_row(entry.label, entry.total_pids, entry.dht_server_pids,
                        entry.dht_client_pids)
    print(horizon.render())
    if comparison.crawler and comparison.crawler.crawls:
        print(
            f"active crawler: {comparison.crawler.crawls} crawls, "
            f"{comparison.crawler.min_discovered}–{comparison.crawler.max_discovered} "
            "DHT-Servers per crawl (clients are invisible to it)"
        )

    # -- network size (Section V style) -----------------------------------------------
    sizes = estimate_network_size(result.dataset("go-ipfs"))
    print(
        f"\nNetwork size estimates: {sizes.total_pids} PIDs observed, "
        f"{sizes.multiaddr.groups} IP groups, "
        f"core (heavy) peers: {sizes.core_network_size}, "
        f"{sizes.pids_per_simultaneous_connection:.1f} PIDs per simultaneous connection"
    )


if __name__ == "__main__":
    main()
