"""Section V.A — network-size estimation by multiaddress (IP) grouping.

Regenerates the grouping of connected PIDs by source IP and checks the
properties the paper reports: grouping shrinks the PID count, most groups are
singletons, a PID-rotating farm shows up as one giant group, and the hydra
heads collapse onto a handful of IPs.
"""

from repro.analysis.tables import TextTable
from repro.core.netsize import estimate_by_multiaddress, estimate_network_size
from repro.experiments.paper_values import PAPER

from conftest import scale_note


def test_sec5a_multiaddress_grouping(benchmark, p4_result):
    dataset = p4_result.dataset("go-ipfs")
    estimate = benchmark(estimate_by_multiaddress, dataset)
    report = estimate_network_size(dataset)

    print()
    print(f"P4: {scale_note(p4_result)}")
    table = TextTable(
        headers=["Quantity", "measured", "paper"],
        title="Section V.A — multiaddress grouping",
    )
    table.add_row("known PIDs", dataset.pid_count(), PAPER.total_pids)
    table.add_row("connected PIDs", estimate.connected_pids, PAPER.connected_pids)
    table.add_row("distinct IPs", estimate.distinct_ips, PAPER.distinct_ips)
    table.add_row("IP groups (estimate)", estimate.groups, PAPER.ip_groups)
    table.add_row("singleton groups", estimate.singleton_groups, PAPER.singleton_groups)
    table.add_row("largest group (PIDs)", estimate.largest_group_size, PAPER.largest_group_pids)
    print(table.render())
    print(
        f"estimated network size: measured {report.estimated_network_size} groups, "
        f"paper ~{PAPER.estimated_network_size:,}; "
        f"PIDs per simultaneous connection: {report.pids_per_simultaneous_connection:.1f} "
        "(paper: ~2)"
    )

    # Shape 1: the grouping strictly shrinks the population of connected PIDs
    # but stays within the same order of magnitude (paper: 62'204 -> 47'516).
    assert estimate.groups < estimate.connected_pids
    assert estimate.groups > 0.4 * estimate.connected_pids

    # Shape 2: the overwhelming majority of groups contain a single PID
    # (paper: 44'301 of 47'516).
    assert estimate.singleton_groups > 0.7 * estimate.groups

    # Shape 3: a PID-rotating population shows up as one large group
    # (paper: one IP with 2'156 PIDs).
    assert estimate.largest_group_size >= 5

    # Shape 4: the number of observed PIDs exceeds the peak number of
    # simultaneous connections (the motivation for grouping at all).
    assert report.pids_per_simultaneous_connection > 1.2

    # Shape 5: hydra heads collapse onto very few IPs in the union dataset of a
    # hydra-equipped period — checked on P0 in bench_ablation_heads; here we
    # only require that the estimate is a partition (sizes sum to grouped PIDs).
    assert sum(estimate.group_sizes.values()) <= estimate.connected_pids
