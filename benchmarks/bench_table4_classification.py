"""Table IV — classification of peers in the P4 data set.

Regenerates the heavy / normal / light / one-time classification from the
recorded connections and compares the class shares and DHT-Server splits
against the paper's Table IV.
"""

from repro.analysis.tables import TextTable
from repro.core.classification import PeerClassLabel
from repro.core.netsize import classify_peers
from repro.experiments.paper_values import PAPER

from conftest import scale_note


def test_table4_peer_classification(benchmark, p4_result):
    dataset = p4_result.dataset("go-ipfs")
    estimate = benchmark(classify_peers, dataset)

    print()
    print(f"P4: {scale_note(p4_result)}")
    table = TextTable(
        headers=[
            "Class", "Peers", "DHT-Server", "share", "paper Peers",
            "paper DHT-Server", "paper share",
        ],
        title="Table IV — classification of peers",
    )
    paper_total = sum(row.peers for row in PAPER.table4)
    for class_name, peers, servers in estimate.rows():
        paper_row = PAPER.table4_row(class_name)
        share = peers / max(1, estimate.classified_peers)
        table.add_row(
            class_name, peers, servers, f"{share:.2f}",
            paper_row.peers, paper_row.dht_servers,
            f"{paper_row.peers / paper_total:.2f}",
        )
    print(table.render())
    print(
        f"core network (heavy peers): measured {estimate.core_size}, "
        f"paper ≥ {PAPER.core_network_size:,} of ~{PAPER.estimated_network_size:,}"
    )

    counts = estimate.counts

    # Shape 1: the classes partition the classified peers and all are populated.
    assert sum(c.peers for c in counts.values()) == estimate.classified_peers
    for label in PeerClassLabel:
        assert counts[label].peers > 0, label

    # Shape 2: heavy peers are a minority "core" — the smallest or second
    # smallest class (paper: 10'540 of 62'204 ≈ 17 %).
    heavy_share = counts[PeerClassLabel.HEAVY].peers / estimate.classified_peers
    assert heavy_share < 0.45

    # Shape 3: short-lived classes (light + one-time) together outweigh heavy
    # peers (paper: ~57 % vs ~17 %).
    short_lived = counts[PeerClassLabel.LIGHT].peers + counts[PeerClassLabel.ONE_TIME].peers
    assert short_lived > counts[PeerClassLabel.HEAVY].peers

    # Shape 4: DHT-Servers are a minority inside the heavy class (paper: 1'449
    # of 10'540) — the heavy DHT-Clients are the "core user base".
    heavy = counts[PeerClassLabel.HEAVY]
    assert heavy.dht_servers < heavy.peers
    assert estimate.core_user_base > 0

    # Shape 5: the light class is rich in DHT-Servers relative to the normal
    # class (crawl-the-DHT traffic, trimming-churned servers; paper: 58 % vs 9 %).
    light = counts[PeerClassLabel.LIGHT]
    normal = counts[PeerClassLabel.NORMAL]
    light_server_share = light.dht_servers / max(1, light.peers)
    normal_server_share = normal.dht_servers / max(1, normal.peers)
    assert light_server_share > normal_server_share
