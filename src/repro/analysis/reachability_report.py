"""Network-conditions metrics: reachability, dial outcomes, RTTs, timeouts.

Scenarios run under a :mod:`repro.netmodel` report a
:class:`~repro.netmodel.runtime.NetModelStats` per run; this module reduces
it to the deterministic, JSON-serialisable ``netmodel`` block the sweep CLI
embeds in every cell summary:

* the ground-truth reachability-class and region composition,
* dial outcomes (attempts, NAT failures, relay dials) and RTT percentiles,
* iterative-walk timeout rates, and
* — when the active crawler ran — the crawler-undercount-vs-passive gap:
  the union of PIDs the crawler discovered vs the subset it could actually
  reach vs what the passive vantage point observed over the same window.

Everything rounds to fixed precision and orders deterministically, so the
block embeds into sweep-cell JSON byte-identically across reruns.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.content_report import quantile_block
from repro.core.records import primary_dataset_label


def crawler_coverage(result) -> Optional[Dict]:
    """The crawler's coverage over the whole window, against the passive view.

    ``undercount_vs_discovered`` is the share of discovered peers the crawler
    could never reach (NATed or gone); ``undercount_vs_passive`` compares the
    crawler's reachable union with every PID the passive vantage point
    recorded.  Returns ``None`` when no crawls ran.
    """
    snapshots = result.crawls.snapshots
    if not snapshots:
        return None
    discovered = set()
    reachable = set()
    for snapshot in snapshots:
        discovered.update(snapshot.discovered)
        reachable.update(snapshot.reachable)
    label = primary_dataset_label(result.datasets)
    passive_pids = result.datasets[label].pid_count() if label is not None else 0
    return {
        "crawls": len(snapshots),
        "union_discovered": len(discovered),
        "union_reachable": len(reachable),
        "undercount_vs_discovered": round(
            1.0 - (len(reachable) / len(discovered)) if discovered else 0.0, 6
        ),
        "passive_pids": passive_pids,
        "undercount_vs_passive": round(
            1.0 - (len(reachable) / passive_pids) if passive_pids else 0.0, 6
        ),
    }


def reachability_metrics(result) -> Optional[Dict]:
    """Reduce a run's netmodel ground truth to the sweep cell's ``netmodel``
    block (``None`` for scenarios that ran on the idealised fabric)."""
    stats = getattr(result, "netmodel", None)
    if stats is None:
        return None
    block: Dict = {
        "peers": stats.peers,
        "classes": dict(sorted(stats.class_counts.items())),
        "regions": dict(sorted(stats.region_counts.items())),
        "unreachable_share": round(stats.unreachable_share, 6),
        "dial_attempts": stats.dial_attempts,
        "dial_failures": stats.dial_failures,
        "relay_dials": stats.relay_dials,
        "dial_failure_rate": round(stats.dial_failure_rate, 6),
        "rpc_messages": stats.rpc_messages,
        "mean_rtt": round(stats.mean_rtt, 6),
        "rtt": quantile_block(stats.rtt_samples, 4),
        "lookups_timed": stats.lookups_timed,
        "lookup_timeouts": stats.lookup_timeouts,
        "lookup_timeout_rate": round(stats.lookup_timeout_rate, 6),
    }
    crawl = crawler_coverage(result)
    if crawl is not None:
        block["crawl"] = crawl
    return block


def reachability_headline(block: Optional[Dict]) -> str:
    """A compact, table-cell-sized summary of the dominant network effect."""
    if not block:
        return "-"
    crawl = block.get("crawl")
    if crawl:
        return f"crawl -{crawl['undercount_vs_discovered']:.0%}"
    if block["lookups_timed"]:
        return f"to {block['lookup_timeout_rate']:.2f}"
    if block["rpc_messages"]:
        return f"rtt {block['mean_rtt']:.2f}s"
    return f"df {block['dial_failure_rate']:.2f}"
