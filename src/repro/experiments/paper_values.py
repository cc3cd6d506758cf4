"""Reference values reported in the paper.

The fidelity checks (``repro.experiments.fidelity``) record the paper's number
next to each measured share, fraction or duration it has one for, and
``FIDELITY.json`` keeps both with their relative error.  Keeping all of them in
one module avoids magic numbers scattered through the checks and makes the
calibration targets of the population generator auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class TableIIRow:
    """One row of Table II (connection statistics)."""

    period: str
    client: str
    kind: str            # "all" | "peer"
    count: int
    average: float
    median: float


@dataclass(frozen=True)
class TableIVRow:
    """One row of Table IV (peer classification)."""

    peer_class: str
    peers: int
    dht_servers: int


@dataclass(frozen=True)
class PaperReference:
    """All quantitative claims of the paper used by the reproduction."""

    # Section IV.B / Fig. 3 composition of the P4 data set
    total_pids: int = 65_853
    goipfs_pids: int = 50_254
    hydra_pids: int = 1_028
    crawler_pids: int = 586
    other_agent_pids: int = 10_926
    missing_agent_pids: int = 3_059
    distinct_agent_strings: int = 323
    distinct_goipfs_versions: int = 263
    distinct_other_agents: int = 61
    distinct_protocols: int = 101

    # Protocol support (Fig. 4 discussion)
    bitswap_support: int = 44_463
    goipfs_claiming: int = 50_163
    kad_support: int = 18_845
    goipfs_080_without_bitswap: int = 7_498

    # Table III: version changes
    version_upgrades: int = 218
    version_downgrades: int = 107
    version_changes: int = 205
    main_to_main: int = 291
    dirty_to_main: int = 9
    main_to_dirty: int = 5
    dirty_to_dirty: int = 225

    # Role / autonat flapping
    kad_flap_peers: int = 2_481
    kad_flap_changes: int = 68_396
    autonat_flap_peers: int = 3_603
    autonat_flap_changes: int = 86_651

    # Section V.A: multiaddress grouping of P4
    connected_pids: int = 62_204
    distinct_ips: int = 56_536
    ip_groups: int = 47_516
    singleton_groups: int = 44_301
    unique_ip_pids: int = 40_193
    largest_group_pids: int = 2_156
    hydra_heads_on_few_ips: int = 1_026
    hydra_ip_count: int = 11

    # Section V headline estimates
    estimated_network_size: int = 48_000
    core_network_size: int = 10_000
    max_simultaneous_connections: int = 16_000

    # Fig. 7 anchors
    fraction_connected_less_1h: float = 0.53
    fraction_connected_more_24h: float = 0.16
    fraction_single_connection: float = 0.50
    fraction_more_than_15_connections: float = 0.10

    # Fig. 6: the ~14 d measurement
    fig6_total_pids: float = 150_000
    fig6_duration_days: float = 14.0

    # Table II (connection statistics), keyed by (period, client, kind)
    table2: Tuple[TableIIRow, ...] = (
        TableIIRow("P0", "go-ipfs", "all", 1_285_513, 196.556, 73.732),
        TableIIRow("P0", "go-ipfs", "peer", 55_258, 695.946, 83.008),
        TableIIRow("P1", "go-ipfs", "all", 355_965, 802.617, 130.464),
        TableIIRow("P1", "go-ipfs", "peer", 41_880, 2_428.966, 580.312),
        TableIIRow("P2", "go-ipfs", "all", 285_357, 3_883.828, 85.404),
        TableIIRow("P2", "go-ipfs", "peer", 42_038, 19_676.930, 3_017.252),
        TableIIRow("P3", "go-ipfs", "all", 47_571, 120.613, 75.192),
        TableIIRow("P3", "go-ipfs", "peer", 10_004, 182.043, 72.964),
        TableIIRow("P0", "hydra-H0", "all", 1_733_511, 302.257, 78.833),
        TableIIRow("P0", "hydra-H0", "peer", 56_465, 2_445.300, 124.226),
        TableIIRow("P1", "hydra-H0", "all", 422_164, 660.900, 76.530),
        TableIIRow("P1", "hydra-H0", "peer", 43_550, 2_512.923, 541.492),
        TableIIRow("P2", "hydra-H0", "all", 416_711, 2_941.519, 65.181),
        TableIIRow("P2", "hydra-H0", "peer", 52_134, 16_553.299, 1_923.119),
        TableIIRow("P0", "hydra-H1", "all", 1_851_308, 285.506, 78.204),
        TableIIRow("P0", "hydra-H1", "peer", 64_147, 2_122.097, 117.375),
        TableIIRow("P1", "hydra-H1", "all", 538_366, 524.595, 77.110),
        TableIIRow("P1", "hydra-H1", "peer", 43_810, 2_099.077, 439.847),
        TableIIRow("P2", "hydra-H1", "all", 408_621, 3_003.313, 65.339),
        TableIIRow("P2", "hydra-H1", "peer", 48_889, 18_049.269, 2_365.113),
        TableIIRow("P0", "hydra-H2", "all", 1_890_556, 280.438, 79.585),
        TableIIRow("P0", "hydra-H2", "peer", 63_981, 1_883.970, 113.643),
    )

    # Table IV: classification of the P4 data set
    table4: Tuple[TableIVRow, ...] = (
        TableIVRow("heavy", 10_540, 1_449),
        TableIVRow("normal", 15_895, 1_420),
        TableIVRow("light", 16_880, 9_755),
        TableIVRow("one-time", 18_889, 6_108),
    )

    # Fig. 2: per-period PID counts of the passive vantage points (approximate
    # readings off the log-scale figure; "40k–65k different peer IDs").
    passive_pid_range: Tuple[int, int] = (40_000, 65_000)

    def table2_row(self, period: str, client: str, kind: str) -> TableIIRow:
        for row in self.table2:
            if row.period == period and row.client == client and row.kind == kind:
                return row
        raise KeyError((period, client, kind))

    def table4_row(self, peer_class: str) -> TableIVRow:
        for row in self.table4:
            if row.peer_class == peer_class:
                return row
        raise KeyError(peer_class)


#: the singleton reference object the fidelity checks read
PAPER = PaperReference()
