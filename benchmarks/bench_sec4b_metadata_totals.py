"""Section IV.B — agent composition totals, role flips, and anomalies.

Regenerates the prose numbers of Section IV.B that are not part of a figure:
the composition of the PID population by agent family, the /ipfs/kad/1.0.0
role-flapping and /libp2p/autonat/1.0.0 flapping counts, and the anomaly
indicators (go-ipfs agents without Bitswap / with /sbptp/, missing identify).
"""

from repro.analysis.tables import TextTable
from repro.core.metadata import analyze_metadata
from repro.experiments.paper_values import PAPER

from conftest import scale_note


def test_sec4b_metadata_totals(benchmark, p4_result):
    dataset = p4_result.dataset("go-ipfs")
    report = benchmark(analyze_metadata, dataset)

    print()
    print(f"P4: {scale_note(p4_result)}")
    scale = dataset.pid_count() / PAPER.total_pids
    table = TextTable(
        headers=["Quantity", "measured", "paper", "paper x scale"],
        title="Section IV.B — composition, flapping, anomalies",
    )
    rows = [
        ("known PIDs", dataset.pid_count(), PAPER.total_pids),
        ("go-ipfs agents", report.agents.goipfs_peers, PAPER.goipfs_pids),
        ("hydra agents", report.agents.hydra_peers, PAPER.hydra_pids),
        ("crawler agents", report.agents.crawler_peers, PAPER.crawler_pids),
        ("other agents", report.agents.other_peers, PAPER.other_agent_pids),
        ("missing agent", report.agents.missing_peers, PAPER.missing_agent_pids),
        ("kad support", report.protocols.kad_support, PAPER.kad_support),
        ("bitswap support", report.protocols.bitswap_support, PAPER.bitswap_support),
        (
            "go-ipfs w/o bitswap",
            report.protocols.goipfs_without_bitswap,
            PAPER.goipfs_080_without_bitswap,
        ),
        ("kad-flapping peers", report.kad_flaps.peers, PAPER.kad_flap_peers),
        ("kad announcement changes", report.kad_flaps.changes, PAPER.kad_flap_changes),
        ("autonat-flapping peers", report.autonat_flaps.peers, PAPER.autonat_flap_peers),
        ("autonat announcement changes", report.autonat_flaps.changes, PAPER.autonat_flap_changes),
    ]
    for name, measured, paper in rows:
        table.add_row(name, measured, paper, f"{paper * scale:.0f}")
    print(table.render())

    agents, protocols = report.agents, report.protocols

    # Shape 1: composition ordering matches the paper:
    # go-ipfs >> other >> missing > hydra ~ crawler (all non-empty).
    assert agents.goipfs_peers > agents.other_peers > agents.hydra_peers
    assert agents.crawler_peers > 0 and agents.missing_peers > 0

    # Shape 2: the storm anomaly exists — go-ipfs agents without Bitswap that
    # announce /sbptp/ instead.
    assert protocols.goipfs_without_bitswap > 0
    assert protocols.goipfs_with_sbptp > 0
    assert protocols.goipfs_with_sbptp <= protocols.goipfs_without_bitswap

    # Shape 3: role flapping — a small share of peers flips its kad announcement
    # many times (paper: 2'481 peers, 68'396 changes → ~27 changes per peer).
    if report.kad_flaps.peers:
        assert report.kad_flaps.peers < 0.15 * dataset.pid_count()
        assert report.kad_flaps.changes_per_peer > 2

    # Shape 4: autonat flapping affects at least as many peers as kad flapping
    # (paper: 3'603 vs 2'481).
    assert report.autonat_flaps.peers >= report.kad_flaps.peers * 0.5
