"""Performance telemetry for the simulation core.

The ROADMAP's north star is a reproduction that "runs as fast as the hardware
allows"; to make speed a tracked property rather than folklore, this module
measures measurement periods (wall time, events/sec, queries/sec, dataset
sizes) and writes machine-readable snapshots (``BENCH_core.json``) that future
optimisation PRs diff against.

The two entry points are:

* :func:`measure_period` — run one period under a timer and return a
  :class:`PeriodPerf` (cheap to pickle, so it also works as the unit of work
  for the process-parallel benchmark runner in
  :mod:`repro.experiments.runner`).
* :func:`write_snapshot` / :func:`load_snapshot` — persist and reread a list
  of :class:`PeriodPerf` plus environment metadata.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

#: file name of the core perf snapshot at the repo root
DEFAULT_SNAPSHOT_NAME = "BENCH_core.json"

#: schema tag written into (and expected from) core perf snapshots
SNAPSHOT_SCHEMA = "repro-bench-core/1"


class SnapshotSchemaError(ValueError):
    """A perf snapshot file is missing its schema tag or carries the wrong one.

    Raised by :func:`load_snapshot` with the offending path and the
    found/expected schemas in the message, instead of letting downstream
    comparison code ``KeyError`` on foreign JSON.
    """


@dataclass(frozen=True)
class PeriodPerf:
    """Timing and throughput of one simulated measurement period."""

    period_id: str
    n_peers: int
    duration_days: float
    seed: int
    wall_seconds: float
    events_processed: int
    events_per_sec: float
    #: FIND_NODE queries issued by the active crawler baseline (0 without it)
    queries_sent: int
    queries_per_sec: float
    #: per-dataset result sizes — the determinism fingerprint of the run
    dataset_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def dataset_counts(result) -> Dict[str, Dict[str, int]]:
    """Summarise a :class:`ScenarioResult`'s datasets as plain counts."""
    counts: Dict[str, Dict[str, int]] = {}
    for label in sorted(result.datasets):
        dataset = result.datasets[label]
        counts[label] = {
            "peers": len(dataset.peers),
            "connections": len(dataset.connections),
            "snapshots": len(dataset.snapshots),
            "changes": len(dataset.changes),
        }
    return counts


def measure_period(
    period_id: str,
    n_peers: Optional[int] = None,
    duration_days: Optional[float] = None,
    seed: int = 7,
    run_crawler: Optional[bool] = None,
) -> PeriodPerf:
    """Run one measurement period under a wall-clock timer.

    Defaults (peers, compressed duration, crawler) come from the period's
    benchmark spec, exactly like :func:`repro.experiments.runner.run_period`.
    """
    # Imported lazily so worker processes pay the import once, and so that
    # importing repro.perf never drags in the whole simulation stack.
    from repro.experiments.periods import period
    from repro.experiments.runner import run_period

    spec = period(period_id)
    peers = n_peers if n_peers is not None else spec.bench_peers
    days = duration_days
    if days is None:
        days = (
            spec.bench_duration_days
            if spec.bench_duration_days is not None
            else spec.duration_days
        )

    start = time.perf_counter()
    result = run_period(
        period_id, n_peers=peers, duration_days=days, seed=seed, run_crawler=run_crawler
    )
    wall = time.perf_counter() - start

    queries = sum(s.queries_sent for s in result.crawls.snapshots)
    return PeriodPerf(
        period_id=period_id,
        n_peers=peers,
        duration_days=days,
        seed=seed,
        wall_seconds=round(wall, 4),
        events_processed=result.events_processed,
        events_per_sec=round(result.events_processed / wall, 1) if wall > 0 else 0.0,
        queries_sent=queries,
        queries_per_sec=round(queries / wall, 1) if wall > 0 else 0.0,
        dataset_counts=dataset_counts(result),
    )


def snapshot_payload(perfs: List[PeriodPerf], note: str = "") -> dict:
    """Build the JSON payload for a perf snapshot."""
    total_wall = sum(p.wall_seconds for p in perfs)
    total_events = sum(p.events_processed for p in perfs)
    return {
        "schema": SNAPSHOT_SCHEMA,
        "note": note,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "totals": {
            "wall_seconds": round(total_wall, 3),
            "events_processed": total_events,
            "events_per_sec": round(total_events / total_wall, 1) if total_wall > 0 else 0.0,
        },
        "periods": [p.as_dict() for p in perfs],
    }


def write_snapshot(path: str, perfs: List[PeriodPerf], note: str = "") -> dict:
    """Write a perf snapshot to ``path``; returns the payload written."""
    payload = snapshot_payload(perfs, note=note)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=False)
        handle.write("\n")
    return payload


def load_snapshot(path: str, expected_schema: Optional[str] = SNAPSHOT_SCHEMA) -> dict:
    """Read a snapshot written by :func:`write_snapshot`.

    Validates the ``schema`` field so a foreign/stale JSON file fails with a
    clear :class:`SnapshotSchemaError` naming the file and the found/expected
    schemas.  Pass ``expected_schema=None`` to skip the exact-match check
    (the field must still exist); pass another tag to validate a different
    snapshot family.
    """
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "schema" not in payload:
        expectation = expected_schema if expected_schema is not None else "a repro-bench tag"
        raise SnapshotSchemaError(
            f"{path}: not a perf snapshot — missing 'schema' field "
            f"(expected {expectation!r})"
        )
    found = payload["schema"]
    if expected_schema is not None and found != expected_schema:
        raise SnapshotSchemaError(
            f"{path}: snapshot schema {found!r} does not match expected "
            f"{expected_schema!r}"
        )
    return payload
