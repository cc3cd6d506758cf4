"""Reduction of a run's streaming-metrics summary for sweep artifacts.

The sweep CLI embeds one ``metrics`` block per cell summary when the cell ran
with ``--metrics``; the full window-by-window time series lives in the cell's
``*__metrics.jsonl`` file, so the embedded block keeps only the run totals
and a short tail of recent windows.  Like every other report module this is
deterministic: same run, same block, byte for byte.

Also a CLI for quick post-hoc inspection of an exported series::

    python -m repro.analysis.metrics_report metrics.jsonl [--top N]

prints the window count, the largest run-total counters, and interpolated
p50/p90/p99 per histogram.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro.artifacts import read_jsonl
from repro.obs.hub import DEFAULT_TIME_BUCKETS

#: windows embedded verbatim into a cell summary (the full series lives in
#: the cell's metrics.jsonl; the embedded block keeps only this tail)
EMBED_WINDOWS = 6


def metrics_metrics(result, embed_windows: int = EMBED_WINDOWS) -> Optional[Dict]:
    """Reduce ``result.metrics`` (a :class:`~repro.obs.hub.MetricsSummary`)
    to a plain cell-summary block.

    Returns ``None`` when the run had metrics disabled (``population.obs``
    unset), so cells without ``--metrics`` carry ``"metrics": null`` and stay
    cheap to aggregate.
    """
    summary = getattr(result, "metrics", None)
    if summary is None:
        return None
    return {
        "window_seconds": summary.window_seconds,
        "windows_closed": summary.windows_closed,
        "windows_dropped": summary.windows_dropped,
        "observations": summary.observations,
        "counters": dict(sorted(summary.counters.items())),
        "recent_windows": list(summary.windows[-embed_windows:]),
    }


# ---------------------------------------------------------------------------
# CLI: quick post-hoc inspection of an exported metrics.jsonl


def _percentile(bounds: Sequence[float], buckets: Sequence[int], q: float) -> str:
    """Interpolated percentile from cumulative histogram buckets.

    ``buckets`` has one count per bound plus an overflow bucket; within the
    bucket holding rank ``q * total`` the value is linearly interpolated
    between the bucket's edges (lower edge 0 for the first bucket).  A rank
    landing in the overflow bucket has no upper edge, so it prints as
    ``>last_bound``.
    """
    total = sum(buckets)
    if total == 0:
        return "-"
    rank = q * total
    cumulative = 0
    for i, count in enumerate(buckets):
        if cumulative + count >= rank and count:
            if i >= len(bounds):
                return f">{bounds[-1]:g}"
            lower = bounds[i - 1] if i else 0.0
            upper = bounds[i]
            fraction = (rank - cumulative) / count
            return f"{lower + (upper - lower) * fraction:.6g}"
        cumulative += count
    return f">{bounds[-1]:g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.metrics_report",
        description="Summarize an exported metrics.jsonl: window count, "
        "largest counters, histogram p50/p90/p99.",
    )
    parser.add_argument("path", help="metrics.jsonl written by a metered run")
    parser.add_argument(
        "--top", type=int, default=10, help="counters to print (default 10)"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.top < 1:
        parser.error(f"--top must be positive, got {args.top}")
    try:
        windows = read_jsonl(args.path, required=("start", "end"))
    except OSError as exc:
        parser.error(f"cannot read {args.path}: {exc}")
    except ValueError as exc:
        parser.error(str(exc))

    counters: Dict[str, int] = {}
    histograms: Dict[str, Dict] = {}
    observations = 0
    for window in windows:
        for name, value in (window.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, payload in (window.get("histograms") or {}).items():
            merged = histograms.setdefault(name, {"count": 0, "buckets": None})
            merged["count"] += payload["count"]
            observations += payload["count"]
            buckets = payload["buckets"]
            if merged["buckets"] is None:
                merged["buckets"] = list(buckets)
            else:
                merged["buckets"] = [
                    a + b for a, b in zip(merged["buckets"], buckets)
                ]

    print(f"windows: {len(windows)}")
    if windows:
        first = windows[0]
        print(f"window_seconds: {first['end'] - first['start']:g}")
    print(f"histogram observations: {observations}")

    ranked = sorted(counters.items(), key=lambda item: (-item[1], item[0]))
    print(f"top counters ({min(args.top, len(ranked))} of {len(ranked)}):")
    for name, value in ranked[: args.top]:
        print(f"  {name}: {value}")

    # The export carries bucket counts but not the bucket bounds; the
    # default hub bounds are assumed here (custom-bucket hubs need their
    # own post-processing).
    bounds = DEFAULT_TIME_BUCKETS
    print("histograms (assuming default time buckets):")
    for name in sorted(histograms):
        merged = histograms[name]
        buckets = merged["buckets"] or []
        p50 = _percentile(bounds, buckets, 0.50)
        p90 = _percentile(bounds, buckets, 0.90)
        p99 = _percentile(bounds, buckets, 0.99)
        print(f"  {name}: count={merged['count']} p50={p50} p90={p90} p99={p99}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
