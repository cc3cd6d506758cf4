"""Content-routing quality metrics: success rates and hop/latency CDFs.

The content scenarios report a :class:`~repro.simulation.content.ContentRoutingStats`
per run; this module reduces it to the deterministic, JSON-serialisable block
the sweep CLI embeds in every cell summary — lookup success rates plus CDF
quantiles of hop counts and simulated lookup latencies.

Everything rounds to fixed precision so two identical runs serialise to
byte-identical artifacts.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.cdf import EmpiricalCDF

#: the quantiles every hop/latency series is reported at
QUANTILES = (0.5, 0.9, 0.99)


def quantile_block(values: Sequence[float], precision: int) -> Dict[str, float]:
    """``{"p50": ..., "p90": ..., "p99": ...}`` (zeros for empty series)."""
    if not values:
        return {f"p{int(q * 100)}": 0.0 for q in QUANTILES}
    cdf = EmpiricalCDF(values)
    return {
        f"p{int(q * 100)}": round(cdf.quantile(q), precision) for q in QUANTILES
    }


def content_metrics(stats) -> Optional[Dict]:
    """Reduce a run's content stats to the sweep cell's ``content`` block.

    Returns ``None`` for scenarios that ran no content workload, so the cell
    JSON distinguishes "no workload" from "workload with zero operations".
    """
    if stats is None:
        return None
    return {
        "publishers": stats.publishers,
        "retrievers": stats.retrievers,
        "provides": stats.provides,
        "provide_success_rate": round(stats.provide_success_rate, 6),
        "republishes": stats.republishes,
        "records_stored": stats.records_stored,
        "records_expired": stats.records_expired,
        "records_live_at_end": stats.records_live_at_end,
        "retrievals": stats.retrievals,
        "retrieval_successes": stats.retrieval_successes,
        "retrievals_local": stats.retrievals_local,
        "retrieval_success_rate": round(stats.retrieval_success_rate, 6),
        "first_half_success_rate": round(stats.first_half_success_rate, 6),
        "second_half_success_rate": round(stats.second_half_success_rate, 6),
        "provide_hops": quantile_block(stats.provide_hops, 1),
        "retrieve_hops": quantile_block(stats.retrieve_hops, 1),
        "provide_latency": quantile_block(stats.provide_latencies, 4),
        "retrieve_latency": quantile_block(stats.retrieve_latencies, 4),
    }
