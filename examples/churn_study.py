#!/usr/bin/env python3
"""Churn study: how the connection-manager watermarks shape connection churn.

The paper's central finding is that IPFS connection churn is dominated by the
connection manager's trimming, not by peers leaving the network, and it
recommends revisiting the default LowWater/HighWater values for DHT-Servers.

This example reproduces that argument end to end: it runs the same simulated
network under the paper's P0 (defaults, 600/900), P1 (2k/4k) and P2 (18k/20k)
configurations plus the P3 DHT-Client deployment, and prints how durations,
close reasons, and the inbound/outbound split respond.

Run with::

    python examples/churn_study.py
"""

from repro.analysis.tables import TextTable, format_count, format_seconds
from repro.core.churn import connection_statistics, trim_share
from repro.experiments.periods import PERIODS
from repro.scenarios import run_scenario_by_name

import os

#: fast-mode knobs: CI's examples-smoke job shrinks every example through
#: these without touching the documented default scale
N_PEERS = int(os.environ.get("REPRO_EXAMPLE_PEERS", "500"))
DURATION_DAYS = float(os.environ.get("REPRO_EXAMPLE_DAYS", "0.5"))


def main() -> None:
    print(
        f"Running P0–P3 at {N_PEERS} peers / {DURATION_DAYS} simulated days each "
        "(watermarks scaled to the population)…"
    )
    reports = {}
    for period_id in ("P0", "P1", "P2", "P3"):
        result = run_scenario_by_name(
            period_id, N_PEERS, DURATION_DAYS, seed=7, overrides={"crawler": False}
        )
        reports[period_id] = connection_statistics(result.dataset("go-ipfs"))

    table = TextTable(
        headers=[
            "Period", "Low/High (paper)", "Mode", "conns", "avg (all)",
            "avg (peer)", "median (all)", "trim share", "in:out",
        ],
        title="\nConnection churn across the measurement configurations",
    )
    for period_id, report in reports.items():
        spec = PERIODS[period_id]
        mode = "Client" if period_id == "P3" else "Server"
        ratio = (
            f"{report.inbound.count}:{report.outbound.count}"
            if report.outbound.count else f"{report.inbound.count}:0"
        )
        table.add_row(
            period_id,
            f"{spec.low_water}/{spec.high_water}",
            mode,
            format_count(report.all_stats.count),
            format_seconds(report.all_stats.average),
            format_seconds(report.peer_stats.average),
            format_seconds(report.all_stats.median_value),
            f"{trim_share(report):.2f}",
            ratio,
        )
    print(table.render())

    print("\nReading of the results (mirrors Section IV.A of the paper):")
    print(
        " * P0's tight defaults trim aggressively: the most connections, the shortest\n"
        "   durations, and the largest share of closes caused by trimming."
    )
    print(
        " * Relaxing the watermarks (P1, P2) lengthens connections; the remaining churn\n"
        "   comes from the *other* side's default watermarks, so the median stays low."
    )
    print(
        " * The DHT-Client deployment (P3) is not worth keeping connections to:\n"
        "   few peers contact it and they drop it quickly."
    )
    print(
        " * Inbound connections dominate and last longer than outbound ones,\n"
        "   confirming that closes are mostly trims rather than peers leaving."
    )


if __name__ == "__main__":
    main()
