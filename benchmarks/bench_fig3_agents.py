"""Fig. 3 — occurrences of the different agent version strings (P4 data set).

Regenerates the agent histogram (go-ipfs grouped by release, rare agents folded
into "other") plus the Section IV.B composition totals, and checks the shape:
go-ipfs dominates, hydra/crawler/exotic agents and identify-less peers form the
long tail.
"""

from repro.analysis.plots import ascii_bar_chart
from repro.core.metadata import agent_breakdown
from repro.experiments.paper_values import PAPER

from conftest import scale_note


def test_fig3_agent_occurrences(benchmark, p4_result):
    dataset = p4_result.dataset("go-ipfs")
    breakdown = benchmark(agent_breakdown, dataset, 2)

    print()
    print(f"P4: {scale_note(p4_result)}")
    print("Fig. 3 — agent occurrences (measured, grouped):")
    print(ascii_bar_chart(breakdown.grouped, max_rows=25))
    share = breakdown.goipfs_peers / max(1, breakdown.total_peers)
    paper_share = PAPER.goipfs_pids / PAPER.total_pids
    print(
        f"measured: {breakdown.total_peers} PIDs, go-ipfs share {share:.2f}, "
        f"{breakdown.distinct_agents} distinct agents "
        f"({breakdown.distinct_goipfs_versions} go-ipfs variants), "
        f"missing {breakdown.missing_peers}"
    )
    print(
        f"paper:    {PAPER.total_pids} PIDs, go-ipfs share {paper_share:.2f}, "
        f"{PAPER.distinct_agent_strings} distinct agents "
        f"({PAPER.distinct_goipfs_versions} go-ipfs variants), "
        f"missing {PAPER.missing_agent_pids}"
    )

    # Shape 1: go-ipfs dominates the agent mix (paper: ~76 %).
    assert 0.6 < share < 0.9

    # Shape 2: every composition bucket of Section IV.B is populated.
    assert breakdown.hydra_peers > 0
    assert breakdown.crawler_peers > 0
    assert breakdown.other_peers > 0
    assert breakdown.missing_peers > 0

    # Shape 3: the composition buckets partition the observed PIDs.
    assert breakdown.total_peers == dataset.pid_count()

    # Shape 4: several distinct go-ipfs variants circulate simultaneously.
    assert breakdown.distinct_goipfs_versions >= 5
