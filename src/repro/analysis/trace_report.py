"""Critical-path attribution of a run's causal span traces.

Reduces ``ScenarioResult.spans`` (a
:class:`~repro.obs.trace_export.TraceSummary`) to the ``tracing`` block the
sweep CLI embeds per cell: how much of the traced retrieval latency each
regime spends in the DHT walk vs failed dials vs retry backoff vs transmit
queueing vs serialization vs the exchange itself.  The decomposition is
:func:`~repro.obs.trace_export.leaf_attribution`, shared with the
``repro.obs.critical_path`` CLI, so the embedded shares and the printed
trees always agree.  Deterministic like every report module: same run, same
block, byte for byte.
"""

from __future__ import annotations

from typing import Dict, Optional

#: slowest traces embedded verbatim as (key, op, seconds, outcome) pointers
#: into the cell's traces.jsonl
EMBED_SLOWEST = 3

#: attribution buckets reported even when empty, so the sweep table and the
#: cell JSON have a stable shape across regimes
CATEGORIES = (
    "walk",
    "dial",
    "backoff",
    "queue",
    "serialization",
    "transfer",
    "other",
)

#: the operation whose latency the critical-path share decomposes
RETRIEVE_OP = "content.retrieve"


def tracing_metrics(result, embed_slowest: int = EMBED_SLOWEST) -> Optional[Dict]:
    """Reduce ``result.spans`` to a plain cell-summary block.

    Returns ``None`` when the run had tracing disabled (``population.trace``
    unset), so cells without ``--trace`` carry ``"tracing": null``.
    """
    summary = getattr(result, "spans", None)
    if summary is None:
        return None
    from repro.obs.trace_export import leaf_attribution

    totals = {category: 0.0 for category in CATEGORIES}
    retrieve_seconds = 0.0
    retrieve_traces = 0
    for payload in summary.traces:
        if payload["op"] != RETRIEVE_OP:
            continue
        retrieve_traces += 1
        retrieve_seconds += payload["seconds"]
        for category, seconds in leaf_attribution(payload["root"]).items():
            totals[category] = totals.get(category, 0.0) + seconds
    if retrieve_seconds > 0.0:
        critical_path = {
            category: round(seconds / retrieve_seconds, 6)
            for category, seconds in sorted(totals.items())
        }
    else:
        critical_path = {category: 0.0 for category in sorted(totals)}
    slowest = sorted(
        summary.traces, key=lambda payload: (-payload["seconds"], payload["key"])
    )[:embed_slowest]
    return {
        "sample": summary.sample,
        "ops": dict(sorted(summary.ops.items())),
        "sampled": dict(sorted(summary.sampled.items())),
        "traces": len(summary.traces),
        "traces_dropped": summary.traces_dropped,
        "retrieve_traces": retrieve_traces,
        "retrieve_seconds": round(retrieve_seconds, 6),
        "critical_path": critical_path,
        "slowest": [
            {
                "key": payload["key"],
                "op": payload["op"],
                "seconds": payload["seconds"],
                "outcome": payload["outcome"],
            }
            for payload in slowest
        ],
    }


def tracing_headline(block: Optional[Dict]) -> str:
    """One cell-table word: the category dominating the retrieval critical
    path, with its share (``-`` when the cell traced no retrievals)."""
    if not block or not block.get("retrieve_traces"):
        return "-"
    critical_path = block["critical_path"]
    category = max(sorted(critical_path), key=lambda name: critical_path[name])
    return f"{category} {critical_path[category]:.0%}"
