"""Claim views: the values a claims-registry band reads that no cell block holds.

A sweep cell summary (:func:`repro.sweep.summarize_result`) already carries the
churn, content, adversary, netmodel, resilience and bandwidth blocks; the
bands of :mod:`repro.experiments.fidelity` read those directly.  What they read
beyond them — the paper's Table II–IV, Fig. 2–7 and Sec. IV.B / V.A quantities,
the threshold and hydra ablations, and a few regime numbers — is computed here,
one view per name in ``VIEWS``, from a finished
:class:`~repro.simulation.scenario.ScenarioResult`.  A cell computes only the
views its planned cell names (``views=`` of :func:`repro.sweep.plan_cell`) and
adds each as a top-level block of its summary, so no name here may be a
summary key.
"""

from __future__ import annotations

from statistics import mean
from typing import Callable, Dict

from repro.core.churn import connection_statistics, trim_share
from repro.core.classification import ClassificationThresholds, PeerClassLabel
from repro.core.horizon import compare_horizons
from repro.core.metadata import (
    agent_breakdown,
    analyze_metadata,
    protocol_breakdown,
    version_changes,
)
from repro.core.netsize import (
    classify_peers,
    connection_cdfs,
    estimate_by_multiaddress,
    estimate_by_neighborhood_density,
    estimate_network_size,
)
from repro.core.timeseries import (
    connected_peers_over_time,
    connections_over_time,
    gone_pids_over_time,
    pids_over_time,
)
from repro.libp2p.peer_id import PeerId
from repro.libp2p.protocols import IPFS_ID, IPFS_PING, KAD_DHT
from repro.scenarios.catalog import PARTITION_RECOVERY_FRACTION
from repro.simulation.churn_models import DAY, HOUR


def _connections(result) -> Dict[str, object]:
    report = connection_statistics(result.dataset("go-ipfs"))
    values = {
        "all_count": report.all_stats.count,
        "all_avg": report.all_stats.average,
        "peer_avg": report.peer_stats.average,
        "inbound_count": report.inbound.count,
        "inbound_avg": report.inbound.average,
        "outbound_count": report.outbound.count,
        "outbound_avg": report.outbound.average,
        "trim_share": trim_share(report),
        "h0_all_count": 0,
    }
    head = result.datasets.get("hydra-H0")
    if head is not None:
        head_report = connection_statistics(head)
        values["h0_all_count"] = head_report.all_stats.count
        values["h0_all_avg"] = head_report.all_stats.average
        values["h0_peer_avg"] = head_report.peer_stats.average
    return values


def _horizon(result) -> Dict[str, object]:
    labels = [label for label in ("go-ipfs", "hydra") if label in result.datasets]
    comparison = compare_horizons(
        result.datasets, crawler_range=result.crawls.range(), labels=labels
    )
    crawler = comparison.crawler
    values = {
        "sees_clients": comparison.passive_sees_clients(),
        "servers_exceed_crawler_min": comparison.passive_servers_exceed_crawler_min("go-ipfs"),
        "crawler_min": crawler.min_discovered if crawler and crawler.crawls else 0,
    }
    for entry in comparison.entries:
        key = "goipfs" if entry.label == "go-ipfs" else entry.label
        values[f"{key}_total"] = entry.total_pids
        values[f"{key}_servers"] = entry.dht_server_pids
    return values


def _fig3(result) -> Dict[str, object]:
    dataset = result.dataset("go-ipfs")
    agents = agent_breakdown(dataset, 2)
    return {
        "goipfs_share": agents.goipfs_peers / max(1, agents.total_peers),
        "hydra": agents.hydra_peers,
        "crawler": agents.crawler_peers,
        "other": agents.other_peers,
        "missing": agents.missing_peers,
        "total": agents.total_peers,
        "pids": dataset.pid_count(),
        "goipfs_versions": agents.distinct_goipfs_versions,
    }


def _fig4(result) -> Dict[str, object]:
    dataset = result.dataset("go-ipfs")
    protocols = protocol_breakdown(dataset)
    speaking = protocols.peers_with_protocols
    return {
        "id": protocols.histogram.get(IPFS_ID, 0),
        "speaking": speaking,
        "ping": protocols.histogram.get(IPFS_PING, 0),
        "bitswap": protocols.bitswap_support,
        "goipfs": agent_breakdown(dataset).goipfs_peers,
        "goipfs_without_bitswap": protocols.goipfs_without_bitswap,
        "goipfs_with_sbptp": protocols.goipfs_with_sbptp,
        "kad": protocols.kad_support,
        "kad_share": protocols.kad_support / speaking if speaking else 0.0,
        "kad_listed": KAD_DHT in protocols.histogram,
    }


def _fig5(result) -> Dict[str, object]:
    dataset = result.dataset("go-ipfs")
    levels = sorted(v for _, v in connections_over_time(dataset, limit=DAY))
    return {
        "peak": levels[-1] if levels else 0.0,
        "median_level": levels[len(levels) // 2] if levels else 0.0,
        "low_water": result.config.go_ipfs.low_water,
        "local_trims": dataset.connections.closes("local-trim"),
    }


def _fig6(result) -> Dict[str, object]:
    dataset = result.dataset("go-ipfs")
    seen = [v for _, v in pids_over_time(dataset, step=3 * HOUR)]
    gone = [v for _, v in gone_pids_over_time(dataset, gone_threshold=3 * DAY, step=3 * HOUR)]
    connected = [v for _, v in connected_peers_over_time(dataset, limit=None)]
    late = connected[-max(1, len(connected) // 10) :]
    # The paper's "every peer has around two PIDs" indicator: PIDs ever seen
    # per peak simultaneous connection.
    peak = max((s.simultaneous_connections for s in dataset.snapshots), default=0)
    return {
        "pids_monotone": seen == sorted(seen),
        "pids_mid": seen[len(seen) // 2],
        "pids_final": seen[-1],
        "gone_monotone": gone == sorted(gone),
        "gone_final": gone[-1],
        "plateau": sum(late) / len(late),
        "pids_per_connection": dataset.pid_count() / peak if peak else 0.0,
    }


def _fig7(result) -> Dict[str, object]:
    cdfs = connection_cdfs(result.dataset("go-ipfs"), 30.0)
    everyone = cdfs["all"]
    return {
        "under_1h": everyone.fraction_connected_less_than(HOUR),
        "over_24h": everyone.fraction_connected_more_than(DAY),
        "single_connection": everyone.connection_count.fraction_at(1),
        "over_15_connections": 1.0 - everyone.connection_count.fraction_at(15),
        "server_under_1h": cdfs["dht-server"].fraction_connected_less_than(HOUR),
        "client_under_1h": cdfs["dht-client"].fraction_connected_less_than(HOUR),
    }


def _table3(result) -> Dict[str, object]:
    dataset = result.dataset("go-ipfs")
    report = version_changes(dataset)
    return {
        "total": report.total,
        "pids": dataset.pid_count(),
        "upgrades": report.upgrades,
        "downgrades": report.downgrades,
        "changes": report.changes,
        "stable": report.main_to_main + report.dirty_to_dirty,
        "crossing": report.dirty_to_main + report.main_to_dirty,
    }


def _table4(result) -> Dict[str, object]:
    estimate = classify_peers(result.dataset("go-ipfs"))
    counts = estimate.counts
    values = {label.value.replace("-", "_"): counts[label].peers for label in PeerClassLabel}
    heavy = counts[PeerClassLabel.HEAVY]
    light = counts[PeerClassLabel.LIGHT]
    normal = counts[PeerClassLabel.NORMAL]
    values.update(
        classified=estimate.classified_peers,
        class_sum=sum(c.peers for c in counts.values()),
        heavy_share=heavy.peers / estimate.classified_peers,
        heavy_servers=heavy.dht_servers,
        core_user_base=estimate.core_user_base,
        light_server_share=light.dht_servers / max(1, light.peers),
        normal_server_share=normal.dht_servers / max(1, normal.peers),
    )
    return values


#: Table IV cut-offs swept around the paper's 24 h / 2 h / 3 connections
THRESHOLD_SWEEP = (
    (
        "strict",
        ClassificationThresholds(
            heavy_duration=36 * HOUR, normal_duration=4 * HOUR, light_min_connections=5
        ),
    ),
    ("paper", ClassificationThresholds()),
    (
        "lenient",
        ClassificationThresholds(
            heavy_duration=12 * HOUR, normal_duration=1 * HOUR, light_min_connections=2
        ),
    ),
)


def _thresholds(result) -> Dict[str, object]:
    values = {}
    for name, thresholds in THRESHOLD_SWEEP:
        estimate = classify_peers(result.dataset("go-ipfs"), thresholds)
        counts = estimate.counts
        values[f"{name}_classified"] = estimate.classified_peers
        values[f"{name}_core"] = estimate.core_size
        values[f"{name}_stable"] = (
            counts[PeerClassLabel.HEAVY].peers + counts[PeerClassLabel.NORMAL].peers
        )
        values[f"{name}_one_time"] = counts[PeerClassLabel.ONE_TIME].peers
    return values


def _sec4b(result) -> Dict[str, object]:
    dataset = result.dataset("go-ipfs")
    report = analyze_metadata(dataset)
    agents, protocols = report.agents, report.protocols
    return {
        "goipfs": agents.goipfs_peers,
        "other": agents.other_peers,
        "hydra": agents.hydra_peers,
        "crawler": agents.crawler_peers,
        "missing": agents.missing_peers,
        "goipfs_without_bitswap": protocols.goipfs_without_bitswap,
        "goipfs_with_sbptp": protocols.goipfs_with_sbptp,
        "kad_flap_peers": report.kad_flaps.peers,
        "kad_flap_changes_per_peer": report.kad_flaps.changes_per_peer,
        "autonat_flap_peers": report.autonat_flaps.peers,
        "pids": dataset.pid_count(),
    }


def _sec5a(result) -> Dict[str, object]:
    dataset = result.dataset("go-ipfs")
    estimate = estimate_by_multiaddress(dataset)
    return {
        "groups": estimate.groups,
        "connected_pids": estimate.connected_pids,
        "singleton_groups": estimate.singleton_groups,
        "largest_group": estimate.largest_group_size,
        "grouped_pids": sum(estimate.group_sizes.values()),
        "pids_per_connection": estimate_network_size(dataset).pids_per_simultaneous_connection,
    }


def _union(result) -> Dict[str, object]:
    union = result.hydra_union()
    return {
        "pids": union.pid_count(),
        "servers": len(union.dht_server_pids()),
        "ip_groups": estimate_by_multiaddress(union).groups,
    }


def _stress(result) -> Dict[str, object]:
    """The hydra head count and the largest head's peers."""
    heads = [label for label in result.datasets if label.startswith("hydra-H")]
    return {
        "heads": len(heads),
        "max_head_peers": max((len(result.datasets[h].peers) for h in heads), default=0),
    }


def _burst(result) -> Dict[str, object]:
    """Connection arrivals per second inside the flash-crowd window vs outside."""
    duration = result.config.duration
    start = duration * 0.30
    end = start + min(2 * HOUR, max(duration * 0.25, 60.0))
    opened = result.dataset("go-ipfs").connections.opened_at
    inside = sum(1 for t in opened if start <= t < end)
    return {
        "rate": inside / (end - start),
        "outside_rate": (len(opened) - inside) / (duration - (end - start)),
    }


def _sybil(result) -> Dict[str, object]:
    """The neighbourhood-density net-size estimate around the go-ipfs node."""
    dataset = result.dataset("go-ipfs")
    target = PeerId.from_base58(result.identity_keys["go-ipfs"]).kad_key()
    observed = [PeerId.from_base58(pid).kad_key() for pid in sorted(dataset.peers)]
    return {
        "density_estimate": estimate_by_neighborhood_density(observed, target).estimate,
        "observed_pids": dataset.pid_count(),
    }


def _poison(result) -> Dict[str, object]:
    """Real replicas stored per PROVIDE and the mean retrieval walk length."""
    content = result.content
    operations = content.provides + content.republishes
    return {
        "replicas_per_provide": content.records_stored / operations if operations else 0.0,
        "retrieve_hops_mean": mean(content.retrieve_hops) if content.retrieve_hops else 0.0,
    }


def _partition(result) -> Dict[str, object]:
    """Every post-heal recovery delay's extremes, against the reconnect spread."""
    delays = result.faults.recovery_delays
    return {
        "delays": len(delays),
        "min_delay": min(delays, default=0.0),
        "max_delay": max(delays, default=0.0),
        "spread": max(result.config.duration * PARTITION_RECOVERY_FRACTION, 60.0),
    }


VIEWS: Dict[str, Callable[[object], Dict[str, object]]] = {
    "table2": _connections,
    "horizon": _horizon,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "table3": _table3,
    "table4": _table4,
    "thresholds": _thresholds,
    "sec4b": _sec4b,
    "sec5a": _sec5a,
    "union": _union,
    "stress": _stress,
    "burst": _burst,
    "sybil": _sybil,
    "poison": _poison,
    "partition": _partition,
}
