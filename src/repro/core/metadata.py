"""Meta-data analysis (Section IV.B: Fig. 3, Fig. 4, Table III, role flips).

Everything here is computed from a :class:`~repro.core.records.MeasurementDataset`:
agent and protocol occurrence histograms, the agent composition counts
(go-ipfs / hydra / crawler / other / missing), version-change classification
(upgrade / downgrade / change and the main/dirty transition matrix), protocol
flapping (DHT role flips, autonat flips), and the anomaly checks the paper
highlights (go-ipfs agents without Bitswap, storm nodes announcing /sbptp/).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.core.records import MeasurementDataset
from repro.libp2p.agent import (
    goipfs_release_group,
    is_crawler_agent,
    is_goipfs_agent,
    is_hydra_agent,
    parse_goipfs_agent,
)
from repro.libp2p.protocols import AUTONAT, KAD_DHT, SBPTP, supports_bitswap


# ------------------------------------------------------------------ agents (Fig. 3)


@dataclass
class AgentBreakdown:
    """Occurrence counts of agent strings and the composition totals."""

    histogram: Dict[str, int] = field(default_factory=dict)       # full agent string -> peers
    grouped: Dict[str, int] = field(default_factory=dict)         # go-ipfs grouped by release
    distinct_goipfs_versions: int = 0
    goipfs_peers: int = 0
    hydra_peers: int = 0
    crawler_peers: int = 0
    other_peers: int = 0
    missing_peers: int = 0

    @property
    def total_peers(self) -> int:
        return (
            self.goipfs_peers
            + self.hydra_peers
            + self.crawler_peers
            + self.other_peers
            + self.missing_peers
        )


def agent_breakdown(dataset: MeasurementDataset, group_threshold: int = 0) -> AgentBreakdown:
    """Compute the Fig. 3 histogram and Section IV.B composition totals.

    ``group_threshold`` mirrors the paper's presentation: agents used by that
    many peers or fewer are folded into an "other" bar in ``grouped``.
    """
    breakdown = AgentBreakdown()
    for record in dataset.peers.values():
        agent = record.agent_version
        if agent is None:
            breakdown.missing_peers += 1
            breakdown.grouped["missing"] = breakdown.grouped.get("missing", 0) + 1
            continue
        breakdown.histogram[agent] = breakdown.histogram.get(agent, 0) + 1
        if is_goipfs_agent(agent):
            breakdown.goipfs_peers += 1
            group = goipfs_release_group(agent) or agent
        elif is_hydra_agent(agent):
            breakdown.hydra_peers += 1
            group = agent
        elif is_crawler_agent(agent):
            breakdown.crawler_peers += 1
            group = agent
        else:
            breakdown.other_peers += 1
            group = agent
        breakdown.grouped[group] = breakdown.grouped.get(group, 0) + 1

    breakdown.distinct_goipfs_versions = len(
        {a for a in breakdown.histogram if is_goipfs_agent(a)}
    )
    if group_threshold > 0:
        folded: Dict[str, int] = {}
        other = 0
        for group, count in breakdown.grouped.items():
            if count <= group_threshold and group != "missing":
                other += count
            else:
                folded[group] = count
        if other:
            folded["other"] = folded.get("other", 0) + other
        breakdown.grouped = folded
    return breakdown


# --------------------------------------------------------------- protocols (Fig. 4)


@dataclass
class ProtocolBreakdown:
    """Occurrence counts of supported protocols plus the paper's key subsets."""

    histogram: Dict[str, int] = field(default_factory=dict)
    peers_with_protocols: int = 0
    bitswap_support: int = 0
    kad_support: int = 0
    goipfs_without_bitswap: int = 0
    goipfs_with_sbptp: int = 0

    def top_protocols(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` most supported protocols; a tie goes by name, so the
        order does not follow the (salted) hash order of the histogram."""
        return sorted(self.histogram.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def protocol_breakdown(dataset: MeasurementDataset) -> ProtocolBreakdown:
    """Compute the Fig. 4 histogram and the Bitswap/kad/sbptp counts."""
    breakdown = ProtocolBreakdown()
    for record in dataset.peers.values():
        if not record.protocols:
            continue
        breakdown.peers_with_protocols += 1
        for protocol in record.protocols:
            breakdown.histogram[protocol] = breakdown.histogram.get(protocol, 0) + 1
        has_bitswap = supports_bitswap(record.protocols)
        if has_bitswap:
            breakdown.bitswap_support += 1
        if KAD_DHT in record.protocols:
            breakdown.kad_support += 1
        if is_goipfs_agent(record.agent_version):
            if not has_bitswap:
                breakdown.goipfs_without_bitswap += 1
            if SBPTP in record.protocols:
                breakdown.goipfs_with_sbptp += 1
    return breakdown


# ------------------------------------------------------- version changes (Table III)


@dataclass
class VersionChangeReport:
    """Classification of go-ipfs agent-version changes (Table III)."""

    upgrades: int = 0
    downgrades: int = 0
    changes: int = 0                  # same release, different commit
    main_to_main: int = 0
    dirty_to_main: int = 0
    main_to_dirty: int = 0
    dirty_to_dirty: int = 0

    @property
    def total(self) -> int:
        return self.upgrades + self.downgrades + self.changes


def version_changes(dataset: MeasurementDataset) -> VersionChangeReport:
    """Classify every recorded agent change of a dataset."""
    report = VersionChangeReport()
    for change in dataset.changes_of_kind("agent"):
        old_agent = change.old_value if isinstance(change.old_value, str) else None
        new_agent = change.new_value if isinstance(change.new_value, str) else None
        if old_agent is None:
            # first time we learned the agent; not a change of the agent itself
            continue
        old = parse_goipfs_agent(old_agent)
        new = parse_goipfs_agent(new_agent)
        if old is None or new is None:
            # a switch to or from a non-go-ipfs agent is no release change
            continue
        if new.release > old.release:
            report.upgrades += 1
        elif new.release < old.release:
            report.downgrades += 1
        elif new.commit != old.commit or new.dirty != old.dirty:
            report.changes += 1
        else:
            continue
        if old.dirty and new.dirty:
            report.dirty_to_dirty += 1
        elif old.dirty and not new.dirty:
            report.dirty_to_main += 1
        elif not old.dirty and new.dirty:
            report.main_to_dirty += 1
        else:
            report.main_to_main += 1
    return report


# -------------------------------------------------------------- protocol flapping


@dataclass
class ProtocolFlapReport:
    """Peers that repeatedly change the announcement of one protocol."""

    protocol: str
    peers: int = 0
    changes: int = 0

    @property
    def changes_per_peer(self) -> float:
        return self.changes / self.peers if self.peers else 0.0


def protocol_flaps(dataset: MeasurementDataset, protocol: str) -> ProtocolFlapReport:
    """Count peers and announcement changes of ``protocol`` (role/autonat flips)."""
    report = ProtocolFlapReport(protocol=protocol)
    flappers: Set[str] = set()
    for change in dataset.changes_of_kind("protocols"):
        old_protocols = set(change.old_value or ())
        new_protocols = set(change.new_value or ())
        if not old_protocols and not new_protocols:
            continue
        had = protocol in old_protocols
        has = protocol in new_protocols
        if had != has and old_protocols:
            report.changes += 1
            flappers.add(change.peer)
    report.peers = len(flappers)
    return report


# --------------------------------------------------------------------- full report


@dataclass
class MetadataReport:
    """The combined Section IV.B analysis of one dataset."""

    label: str
    agents: AgentBreakdown
    protocols: ProtocolBreakdown
    versions: VersionChangeReport
    kad_flaps: ProtocolFlapReport
    autonat_flaps: ProtocolFlapReport


def analyze_metadata(dataset: MeasurementDataset, group_threshold: int = 0) -> MetadataReport:
    """Run the full meta-data analysis for one dataset."""
    return MetadataReport(
        label=dataset.label,
        agents=agent_breakdown(dataset, group_threshold=group_threshold),
        protocols=protocol_breakdown(dataset),
        versions=version_changes(dataset),
        kad_flaps=protocol_flaps(dataset, KAD_DHT),
        autonat_flaps=protocol_flaps(dataset, AUTONAT),
    )
