"""Table II — connection statistics per measurement period and client.

For every vantage point of P0–P3 the benchmark regenerates the Sum / Avg /
Median rows ("All" and "Peer" flavours) and checks the orderings the paper's
Section IV.A argues from:

* the per-connection ("All") average is far below the per-peer average,
* relaxing the connection-manager watermarks lengthens connections
  (P0 < P1 < P2 for the go-ipfs vantage point),
* the DHT-Client vantage point (P3) sees only short connections,
* inbound connections outnumber and outlast outbound ones.
"""


from repro.analysis.tables import TextTable, format_count, format_seconds
from repro.core.churn import connection_statistics
from repro.experiments.paper_values import PAPER

from conftest import scale_note


def collect_reports(results):
    reports = {}
    for period_id, result in results.items():
        for label, dataset in result.datasets.items():
            if label == "hydra":
                continue  # Table II lists individual heads, not the union
            reports[(period_id, label)] = connection_statistics(dataset)
    return reports


def render_table(reports):
    table = TextTable(
        headers=[
            "Period", "Client", "Type", "Sum", "Avg.", "Median",
            "paper Sum", "paper Avg.", "paper Median",
        ],
        title="Table II — connection statistics (measured vs paper)",
    )
    for (period_id, label), report in sorted(reports.items()):
        for stats in (report.all_stats, report.peer_stats):
            try:
                paper_row = PAPER.table2_row(period_id, label, stats.kind)
                paper_cells = (
                    format_count(paper_row.count),
                    format_seconds(paper_row.average),
                    format_seconds(paper_row.median),
                )
            except KeyError:
                paper_cells = ("-", "-", "-")
            table.add_row(
                period_id,
                label,
                stats.kind,
                format_count(stats.count),
                format_seconds(stats.average),
                format_seconds(stats.median_value),
                *paper_cells,
            )
    return table


def test_table2_connection_statistics(benchmark, p0_result, p1_result, p2_result, p3_result):
    results = {"P0": p0_result, "P1": p1_result, "P2": p2_result, "P3": p3_result}
    reports = benchmark(collect_reports, results)

    print()
    for period_id, result in results.items():
        print(f"{period_id}: {scale_note(result)}")
    print(render_table(reports).render())

    goipfs = {period: reports[(period, "go-ipfs")] for period in results}

    # Shape 1: Avg(All) << Avg(Peer) — short-lived connections dominate counts.
    for period, report in goipfs.items():
        assert report.all_stats.count > 0, period
        assert report.all_stats.average <= report.peer_stats.average, period

    # Shape 2: relaxing the watermarks lengthens connections (P0 < P2).
    assert goipfs["P0"].all_stats.average < goipfs["P2"].all_stats.average
    assert goipfs["P0"].peer_stats.average < goipfs["P2"].peer_stats.average

    # Shape 3: the DHT-Client vantage point (P3) has the shortest durations.
    assert goipfs["P3"].peer_stats.average < goipfs["P2"].peer_stats.average

    # Shape 4: inbound connections outnumber and outlast outbound ones.
    for period in ("P0", "P1", "P2"):
        report = goipfs[period]
        assert report.inbound.count > report.outbound.count, period
        assert report.inbound.average > report.outbound.average, period

    # Shape 5: hydra heads behave like the go-ipfs server vantage point.
    for period in ("P0", "P1", "P2"):
        head_report = reports.get((period, "hydra-H0"))
        if head_report is not None and head_report.all_stats.count:
            assert head_report.all_stats.average <= head_report.peer_stats.average
