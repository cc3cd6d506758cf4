"""Perf-regression gate: compare a fresh perf snapshot against the baseline.

CI runs the core benchmark harness (``benchmarks/benchlib.py``) to produce a
current ``BENCH_*.json`` snapshot and then calls this script to compare it
against the committed ``BENCH_core.json`` baseline:

* **Throughput** — the run fails when total ``events_per_sec`` drops more
  than ``tolerance`` (default 30 %) below the baseline.  The tolerance can be
  overridden with ``--tolerance`` or the ``REPRO_PERF_TOLERANCE`` environment
  variable (useful on slow or noisy runners).
* **Determinism** — for every period whose (peers, days, seed) scale matches
  the baseline, ``events_processed`` and the per-dataset result counts must
  match *exactly*: those are machine-independent fingerprints, so a mismatch
  means the simulation's behaviour changed, not that the machine was slow.

Usage::

    PYTHONPATH=src python benchmarks/benchlib.py BENCH_current.json
    python benchmarks/check_regression.py --current BENCH_current.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

#: default allowed events/sec drop below baseline (0.30 = 30 %)
DEFAULT_TOLERANCE = 0.30
TOLERANCE_ENV = "REPRO_PERF_TOLERANCE"


def load_snapshot(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def resolve_tolerance(explicit: Optional[float] = None) -> float:
    """Explicit flag wins, then the environment knob, then the default."""
    if explicit is not None:
        tolerance = explicit
    else:
        raw = os.environ.get(TOLERANCE_ENV, "")
        try:
            tolerance = float(raw) if raw else DEFAULT_TOLERANCE
        except ValueError:
            raise SystemExit(f"invalid {TOLERANCE_ENV}={raw!r} (expected a float)")
    if not 0.0 <= tolerance < 1.0:
        raise SystemExit(f"tolerance must be within [0, 1), got {tolerance}")
    return tolerance


def _scale_key(period: Dict) -> tuple:
    return (period["n_peers"], period["duration_days"], period["seed"])


def check_regression(
    baseline: Dict, current: Dict, tolerance: float = DEFAULT_TOLERANCE
) -> List[str]:
    """Return a list of problems (empty = gate passes)."""
    problems: List[str] = []

    base_rate = baseline["totals"]["events_per_sec"]
    cur_rate = current["totals"]["events_per_sec"]
    floor = base_rate * (1.0 - tolerance)
    if cur_rate < floor:
        problems.append(
            f"throughput regression: {cur_rate:.1f} events/sec is below "
            f"{floor:.1f} (baseline {base_rate:.1f}, tolerance {tolerance:.0%})"
        )

    base_periods = {p["period_id"]: p for p in baseline["periods"]}
    for period in current["periods"]:
        period_id = period["period_id"]
        base = base_periods.get(period_id)
        if base is None or _scale_key(base) != _scale_key(period):
            # Different scale (e.g. a REPRO_BENCH_PEERS smoke run): the
            # deterministic fingerprints are not comparable.
            continue
        if period["events_processed"] != base["events_processed"]:
            problems.append(
                f"{period_id}: events_processed changed "
                f"{base['events_processed']} -> {period['events_processed']} "
                "(same scale and seed: simulation behaviour changed)"
            )
        if period["dataset_counts"] != base["dataset_counts"]:
            problems.append(
                f"{period_id}: dataset counts changed at identical scale/seed "
                "(simulation behaviour changed)"
            )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a perf snapshot regresses against the baseline.",
    )
    parser.add_argument(
        "--baseline", default="BENCH_core.json",
        help="committed baseline snapshot (default: BENCH_core.json)",
    )
    parser.add_argument(
        "--current", required=True,
        help="freshly produced snapshot to check",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help=(
            "allowed events/sec drop as a fraction "
            f"(default: ${TOLERANCE_ENV} or {DEFAULT_TOLERANCE})"
        ),
    )
    args = parser.parse_args(argv)

    tolerance = resolve_tolerance(args.tolerance)
    baseline = load_snapshot(args.baseline)
    current = load_snapshot(args.current)

    base_rate = baseline["totals"]["events_per_sec"]
    cur_rate = current["totals"]["events_per_sec"]
    print(
        f"baseline {base_rate:.1f} events/sec, current {cur_rate:.1f} "
        f"({cur_rate / base_rate:.1%} of baseline, tolerance {tolerance:.0%})"
    )
    problems = check_regression(baseline, current, tolerance)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
