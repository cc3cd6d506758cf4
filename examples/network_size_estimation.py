#!/usr/bin/env python3
"""Network-size estimation from a passive vantage point (Section V).

Reproduces both estimators of the paper on a simulated P4-style measurement
(multi-day, relaxed watermarks, DHT-Server vantage point):

1. multiaddress grouping — PIDs that connect from the same IP address are
   treated as one participant;
2. connection-behaviour classification — heavy / normal / light / one-time
   classes from the maximum connection duration and connection count, with the
   heavy class as the "core network".

It also prints the Fig. 7 CDF anchors that motivate the classification.

Run with::

    python examples/network_size_estimation.py
"""

from repro.analysis.tables import TextTable
from repro.core.netsize import connection_cdfs, estimate_network_size
from repro.scenarios import run_scenario_by_name

import os

#: fast-mode knobs: CI's examples-smoke job shrinks every example through
#: these without touching the documented default scale
N_PEERS = int(os.environ.get("REPRO_EXAMPLE_PEERS", "700"))
DURATION_DAYS = float(os.environ.get("REPRO_EXAMPLE_DAYS", "1.5"))

HOUR = 3_600.0
DAY = 86_400.0


def main() -> None:
    print(
        f"Simulating a P4-style measurement (DHT-Server vantage point, "
        f"{N_PEERS} peers, {DURATION_DAYS:g} days)…"
    )
    result = run_scenario_by_name(
        "p4", N_PEERS, DURATION_DAYS, seed=11, overrides={"crawler": False}
    )
    dataset = result.dataset("go-ipfs")
    report = estimate_network_size(dataset)

    # -- PIDs vs connections ----------------------------------------------------------
    print(
        f"\nObserved {report.total_pids} PIDs but at most "
        f"{report.peak_simultaneous_connections} simultaneous connections "
        f"({report.pids_per_simultaneous_connection:.1f} PIDs per connection) — "
        "counting PIDs overestimates the number of peers."
    )

    # -- estimator 1: multiaddress grouping ----------------------------------------------
    multiaddr = report.multiaddr
    table = TextTable(
        headers=["Quantity", "value"], title="\nEstimator 1 — multiaddress grouping"
    )
    table.add_row("connected PIDs", multiaddr.connected_pids)
    table.add_row("distinct IPs", multiaddr.distinct_ips)
    table.add_row("IP groups (network-size estimate)", multiaddr.groups)
    table.add_row("groups with a single PID", multiaddr.singleton_groups)
    table.add_row("largest group (PID-rotating peer)", multiaddr.largest_group_size)
    print(table.render())
    print(
        "Caveats (as in the paper): NAT and shared cloud IPs merge distinct peers,\n"
        "hydra heads collapse onto a few IPs, relayed peers show the relay's address."
    )

    # -- estimator 2: connection-behaviour classification ------------------------------------
    classes = report.classification
    table = TextTable(
        headers=["Class", "Peers", "DHT-Server", "DHT-Client"],
        title="\nEstimator 2 — classification by connection behaviour (Table IV)",
    )
    for class_name, peers, servers in classes.rows():
        table.add_row(class_name, peers, servers, peers - servers)
    print(table.render())
    print(
        f"Core network (heavy peers): {classes.core_size}; "
        f"core user base (heavy DHT-Clients): {classes.core_user_base}.\n"
        "The core is a lower bound: trimming can only demote core nodes into the\n"
        "light / one-time classes, never promote transient ones."
    )

    # -- Fig. 7 anchors -------------------------------------------------------------------------
    cdf = connection_cdfs(dataset)["all"]
    print("\nFig. 7 anchors (all PIDs):")
    print(f"  connected less than 1 h:   {cdf.fraction_connected_less_than(HOUR):.0%}")
    print(f"  connected more than 24 h:  {cdf.fraction_connected_more_than(DAY):.0%}")
    print(f"  exactly one connection:    {cdf.connection_count.fraction_at(1):.0%}")
    print(f"  more than 15 connections:  {1 - cdf.connection_count.fraction_at(15):.0%}")


if __name__ == "__main__":
    main()
