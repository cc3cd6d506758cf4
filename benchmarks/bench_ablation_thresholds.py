"""Ablation — sweep of the connection-manager watermarks.

The paper's conclusion recommends investigating (and raising) the default
LowWater/HighWater values for DHT-Servers.  This ablation sweeps the
watermarks at fixed population and duration and regenerates the relationship
the paper infers from Table II: higher thresholds → fewer trims → longer
connection durations and fewer total connections.
"""

import pytest

from repro.analysis.tables import TextTable, format_seconds
from repro.core.churn import connection_statistics, trim_share
from repro.scenarios import run_scenario_by_name

N_PEERS = 500
DAYS = 0.5
#: watermark pairs expressed at paper scale; the period builder scales them to
#: the population with the rule every catalog entry uses
WATERMARK_SWEEP = [(600, 900), (2_000, 4_000), (6_000, 8_000), (18_000, 20_000)]


def run_sweep():
    reports = {}
    for low, high in WATERMARK_SWEEP:
        # P4 (a lone DHT-Server go-ipfs node) with the watermarks swapped out
        overrides = {"low_water": low, "high_water": high, "crawler": False}
        result = run_scenario_by_name("p4", N_PEERS, DAYS, 17, overrides)
        reports[(low, high)] = connection_statistics(result.dataset("go-ipfs"))
    return reports


@pytest.fixture(scope="module")
def sweep_reports():
    return run_sweep()


def test_ablation_watermark_sweep(benchmark, sweep_reports):
    reports = sweep_reports
    stats = benchmark(
        lambda: {key: (r.all_stats, r.peer_stats, trim_share(r)) for key, r in reports.items()}
    )

    print()
    print(f"[ablation scale: {N_PEERS} peers, {DAYS:.2f} d per configuration]")
    table = TextTable(
        headers=[
            "Low/High (paper scale)", "connections", "avg (all)", "avg (peer)", "trim share"
        ],
        title="Ablation — connection-manager watermark sweep",
    )
    for (low, high), (all_stats, peer_stats, trims) in stats.items():
        table.add_row(
            f"{low}/{high}", all_stats.count,
            format_seconds(all_stats.average), format_seconds(peer_stats.average),
            f"{trims:.2f}",
        )
    print(table.render())

    ordered = [stats[key] for key in WATERMARK_SWEEP]

    # Shape 1: the per-peer average connection duration grows monotonically in
    # the watermark sweep endpoints (tightest vs loosest configuration).
    assert ordered[0][1].average < ordered[-1][1].average

    # Shape 2: the tightest configuration produces the most connections
    # (every trim triggers reconnects), the loosest the fewest.
    assert ordered[0][0].count > ordered[-1][0].count

    # Shape 3: the local trim share decreases as the watermarks grow.
    assert ordered[0][2] >= ordered[-1][2]
