"""``python -m repro.obs.critical_path`` — top-k slowest traces as trees.

Reads a ``traces.jsonl`` written by the span tracer and prints the slowest
traces as indented span trees with a per-trace critical-path attribution
line.  Pure post-processing: nothing
here touches a simulation, and the output is deterministic for a given
input file.

Usage::

    python -m repro.obs.critical_path traces.jsonl [--top K] [--op KIND]
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.artifacts import read_jsonl
from repro.obs.trace_export import leaf_attribution


def format_span(payload: Dict, depth: int = 0) -> List[str]:
    """One indented line per span: duration, category, name, annotations."""
    attrs = payload.get("attrs") or {}
    notes = " ".join(f"{key}={value}" for key, value in sorted(attrs.items()))
    dropped = payload.get("children_dropped", 0)
    if dropped:
        notes = f"{notes} +{dropped} dropped".strip()
    line = (
        f"{'  ' * depth}{payload['seconds']:>10.6f}s  "
        f"[{payload['cat']}] {payload['name']}"
    )
    if notes:
        line += f"  ({notes})"
    lines = [line]
    for child in payload.get("children") or []:
        lines.extend(format_span(child, depth + 1))
    return lines


def format_trace(payload: Dict, rank: int) -> str:
    """The printable block for one trace: header, tree, attribution."""
    header = (
        f"#{rank} {payload['op']} key={payload['key']} "
        f"{payload['seconds']:.6f}s outcome={payload['outcome']}"
    )
    if payload.get("timed_out"):
        header += " timed_out"
    attribution = leaf_attribution(payload["root"])
    shares = " ".join(
        f"{category}={seconds:.6f}s"
        for category, seconds in sorted(attribution.items())
        if round(seconds, 6)
    )
    lines = [header]
    lines.extend(format_span(payload["root"], depth=1))
    lines.append(f"  critical path: {shares or 'none'}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.critical_path",
        description="Print the top-k slowest traces of a traces.jsonl as "
        "indented span trees with critical-path attribution.",
    )
    parser.add_argument("path", help="traces.jsonl written by a traced run")
    parser.add_argument(
        "--top", type=int, default=5, help="traces to print (default 5)"
    )
    parser.add_argument(
        "--op", default=None, help="only consider this operation kind "
        "(e.g. content.retrieve)"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.top < 1:
        parser.error(f"--top must be positive, got {args.top}")
    try:
        traces = read_jsonl(args.path, required=("key", "op", "outcome", "root", "seconds"))
    except OSError as exc:
        parser.error(f"cannot read {args.path}: {exc}")
    except ValueError as exc:
        parser.error(str(exc))
    if args.op is not None:
        traces = [payload for payload in traces if payload["op"] == args.op]
    # Slowest first; ties break on the (unique) operation key so the
    # printout is deterministic.
    traces.sort(key=lambda payload: (-payload["seconds"], payload["key"]))
    selected = traces[: args.top]
    if not selected:
        print("no matching traces")
        return 0
    blocks = [format_trace(payload, rank) for rank, payload in enumerate(selected, 1)]
    print("\n\n".join(blocks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
