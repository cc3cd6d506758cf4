"""Fig. 4 — occurrences of the supported protocols (P4 data set).

Regenerates the protocol histogram and the Section IV.B support counts: almost
everyone speaks id/ping, Bitswap support is widespread but *lower* than the
go-ipfs population (the storm anomaly), and /ipfs/kad/1.0.0 marks the
DHT-Server subset.
"""

from repro.analysis.plots import ascii_bar_chart
from repro.core.metadata import agent_breakdown, protocol_breakdown
from repro.experiments.paper_values import PAPER
from repro.libp2p.protocols import IPFS_ID, IPFS_PING, KAD_DHT

from conftest import scale_note


def test_fig4_protocol_occurrences(benchmark, p4_result):
    dataset = p4_result.dataset("go-ipfs")
    breakdown = benchmark(protocol_breakdown, dataset)
    agents = agent_breakdown(dataset)

    print()
    print(f"P4: {scale_note(p4_result)}")
    print("Fig. 4 — protocol occurrences (measured, top 20):")
    top = dict(breakdown.top_protocols(20))
    print(ascii_bar_chart(top, max_rows=20))
    print(
        f"measured: {breakdown.distinct_protocols} distinct protocols, "
        f"bitswap {breakdown.bitswap_support}, kad {breakdown.kad_support}, "
        f"go-ipfs without bitswap {breakdown.goipfs_without_bitswap} "
        f"(of {agents.goipfs_peers} go-ipfs peers)"
    )
    print(
        f"paper:    {PAPER.distinct_protocols} distinct protocols, "
        f"bitswap {PAPER.bitswap_support}, kad {PAPER.kad_support}, "
        f"go-ipfs 0.8.0 without bitswap {PAPER.goipfs_080_without_bitswap} "
        f"(of {PAPER.goipfs_pids} go-ipfs peers)"
    )

    # Shape 1: id and ping are the most widely supported protocols.
    assert breakdown.histogram[IPFS_ID] == breakdown.peers_with_protocols
    assert breakdown.histogram.get(IPFS_PING, 0) >= 0.9 * breakdown.peers_with_protocols

    # Shape 2: fewer peers support Bitswap than claim to run go-ipfs
    # (the storm anomaly), yet Bitswap support is widespread.
    assert breakdown.bitswap_support < agents.goipfs_peers
    assert breakdown.bitswap_support > 0.5 * breakdown.peers_with_protocols
    assert breakdown.goipfs_without_bitswap > 0
    assert breakdown.goipfs_with_sbptp > 0

    # Shape 3: the kad protocol marks a strict subset of peers (the DHT-Servers);
    # in the paper ~30 % of peers announce it.
    assert 0 < breakdown.kad_support < breakdown.peers_with_protocols
    kad_share = breakdown.kad_support / breakdown.peers_with_protocols
    paper_kad_share = PAPER.kad_support / (PAPER.total_pids - PAPER.missing_agent_pids)
    assert abs(kad_share - paper_kad_share) < 0.25

    # Shape 4: the measured histogram is keyed by the protocol strings of Fig. 4.
    assert KAD_DHT in breakdown.histogram
