"""Aggregation of scenario-sweep cell summaries.

The sweep CLI (``python -m repro.sweep``) produces one JSON summary dict per
(scenario, population, seed) cell; this module turns a list of those dicts
into the aggregate artifacts — a totals payload and a rendered
:class:`~repro.analysis.tables.TextTable`.  Cells that failed to run are
carried alongside the successes (the CLI exits nonzero when any exist).
Everything here is deterministic: no timestamps, no wall-clock fields, stable
ordering — two sweeps with the same flags must aggregate to byte-identical
output.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.attack_report import attack_headline
from repro.analysis.reachability_report import reachability_headline
from repro.analysis.resilience_report import resilience_headline
from repro.analysis.tables import TextTable, format_count
from repro.analysis.trace_report import tracing_headline
from repro.analysis.transfer_report import transfer_headline
from repro.core.records import primary_dataset_label

#: schema tags of the sweep artifacts (cell /4: causal-tracing block)
CELL_SCHEMA = "repro-sweep-cell/4"
SWEEP_SCHEMA = "repro-sweep/1"


def aggregate_payload(summaries: Sequence[Dict], failures: Sequence[Dict] = ()) -> Dict:
    """The ``sweep_summary.json`` payload: all cells plus sweep-wide totals."""
    content_blocks = [s["content"] for s in summaries if s.get("content")]
    totals = {
        "cells": len(summaries),
        "failed_cells": len(failures),
        "events_processed": sum(s["events_processed"] for s in summaries),
        "queries_sent": sum(s["queries_sent"] for s in summaries),
        # The "hydra" dataset is the union of the per-head datasets summed
        # alongside it; skip it so each recorded connection counts once.
        "connections": sum(
            counts["connections"]
            for s in summaries
            for label, counts in s["datasets"].items()
            if label != "hydra"
        ),
        "retrievals": sum(c["retrievals"] for c in content_blocks),
        "retrieval_successes": sum(c["retrieval_successes"] for c in content_blocks),
        "attackers": sum(
            s["adversary"]["attackers"] for s in summaries if s.get("adversary")
        ),
        "dial_failures": sum(
            s["netmodel"]["dial_failures"] for s in summaries if s.get("netmodel")
        ),
        "lookup_timeouts": sum(
            s["netmodel"]["lookup_timeouts"] for s in summaries if s.get("netmodel")
        ),
        "faulted_rpcs": sum(
            s["resilience"]["rpc"]["lost"] + s["resilience"]["rpc"]["partitioned"]
            for s in summaries
            if s.get("resilience")
        ),
        "crashes": sum(
            s["resilience"]["crash"]["crashes"] for s in summaries if s.get("resilience")
        ),
        "retries": sum(
            s["resilience"]["retry"]["retries"] for s in summaries if s.get("resilience")
        ),
        "transfers": sum(
            s["bandwidth"]["transfers"] for s in summaries if s.get("bandwidth")
        ),
        "transfer_timeouts": sum(
            s["bandwidth"]["transfers_timed_out"]
            for s in summaries
            if s.get("bandwidth")
        ),
        "bytes_transferred": sum(
            s["bandwidth"]["bytes_transferred"] for s in summaries if s.get("bandwidth")
        ),
        # Cells run without --metrics carry "metrics": null; older cell JSON
        # predates the block entirely, hence the defensive .get.
        "metric_windows": sum(
            s["metrics"]["windows_closed"] for s in summaries if s.get("metrics")
        ),
        "metric_observations": sum(
            s["metrics"]["observations"] for s in summaries if s.get("metrics")
        ),
        # Cells run without --trace carry "tracing": null (same discipline).
        "traced_ops": sum(
            sum(s["tracing"]["ops"].values()) for s in summaries if s.get("tracing")
        ),
        "traces": sum(
            s["tracing"]["traces"] for s in summaries if s.get("tracing")
        ),
    }
    return {
        "schema": SWEEP_SCHEMA,
        "totals": totals,
        "cells": list(summaries),
        "failures": list(failures),
    }


def aggregate_table(summaries: Sequence[Dict]) -> TextTable:
    """One row per sweep cell, judged by its primary dataset."""
    table = TextTable(
        headers=[
            "Scenario", "Peers", "Seed", "Events", "Dataset",
            "PIDs", "Conns", "Avg dur (s)", "Trim share", "Queries",
            "Retr", "Retr OK", "Atk", "Attack", "Unreach", "Net",
            "Faults", "Resil", "Xfers", "Data plane", "Traces", "Crit path",
        ],
        title="Scenario sweep",
    )
    for summary in summaries:
        label = primary_dataset_label(summary["datasets"])
        counts = summary["datasets"].get(label, {}) if label else {}
        churn = summary.get("churn", {}).get(label, {}) if label else {}
        content = summary.get("content")
        adversary = summary.get("adversary")
        netmodel = summary.get("netmodel")
        resilience = summary.get("resilience")
        bandwidth = summary.get("bandwidth")
        tracing = summary.get("tracing")
        faulted = (
            resilience["rpc"]["lost"]
            + resilience["rpc"]["partitioned"]
            + resilience["bitswap"]["lost"]
            + resilience["bitswap"]["partitioned"]
            if resilience
            else 0
        )
        table.add_row(
            summary["scenario"],
            summary["n_peers"],
            summary["seed"],
            format_count(summary["events_processed"]),
            label or "-",
            format_count(counts.get("peers", 0)),
            format_count(counts.get("connections", 0)),
            f"{churn.get('avg_duration', 0.0):.1f}",
            f"{churn.get('trim_share', 0.0):.2f}",
            format_count(summary["queries_sent"]),
            format_count(content["retrievals"]) if content else "-",
            f"{content['retrieval_success_rate']:.2f}" if content else "-",
            format_count(adversary["attackers"]) if adversary else "-",
            attack_headline(adversary),
            f"{netmodel['unreachable_share']:.2f}" if netmodel else "-",
            reachability_headline(netmodel),
            format_count(faulted) if resilience else "-",
            resilience_headline(resilience),
            format_count(bandwidth["transfers"]) if bandwidth else "-",
            transfer_headline(bandwidth),
            format_count(tracing["traces"]) if tracing else "-",
            tracing_headline(tracing),
        )
    return table


def render_aggregate(summaries: Sequence[Dict], failures: Sequence[Dict] = ()) -> str:
    """The ``sweep_table.txt`` content (table plus totals and failures)."""
    payload = aggregate_payload(summaries, failures)
    totals = payload["totals"]
    lines: List[str] = [aggregate_table(summaries).render(), ""]
    totals_line = (
        f"{totals['cells']} cells, "
        f"{format_count(totals['events_processed'])} events, "
        f"{format_count(totals['connections'])} recorded connections, "
        f"{format_count(totals['queries_sent'])} crawler queries"
    )
    if totals["retrievals"]:
        ok = totals["retrieval_successes"] / totals["retrievals"]
        totals_line += (
            f", {format_count(totals['retrievals'])} retrievals ({ok:.0%} ok)"
        )
    if totals["attackers"]:
        totals_line += f", {format_count(totals['attackers'])} attackers"
    if totals["dial_failures"]:
        totals_line += f", {format_count(totals['dial_failures'])} failed dials"
    if totals["lookup_timeouts"]:
        totals_line += f", {format_count(totals['lookup_timeouts'])} lookup timeouts"
    if totals["faulted_rpcs"]:
        totals_line += f", {format_count(totals['faulted_rpcs'])} faulted RPCs"
    if totals["retries"]:
        totals_line += f", {format_count(totals['retries'])} retries"
    if totals["crashes"]:
        totals_line += f", {format_count(totals['crashes'])} crashes"
    if totals["transfers"]:
        totals_line += (
            f", {format_count(totals['transfers'])} transfers "
            f"({format_count(totals['bytes_transferred'])} B)"
        )
    if totals["transfer_timeouts"]:
        totals_line += f", {format_count(totals['transfer_timeouts'])} transfer timeouts"
    if totals["metric_windows"]:
        totals_line += (
            f", {format_count(totals['metric_observations'])} metric observations "
            f"in {format_count(totals['metric_windows'])} windows"
        )
    if totals["traces"]:
        totals_line += (
            f", {format_count(totals['traces'])} traces of "
            f"{format_count(totals['traced_ops'])} traced ops"
        )
    lines.append(totals_line)
    for failure in failures:
        lines.append(
            f"FAILED {failure['scenario']} (peers={failure['n_peers']}, "
            f"seed={failure['seed']}): {failure['error']}"
        )
    return "\n".join(lines) + "\n"
