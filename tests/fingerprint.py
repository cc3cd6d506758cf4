"""Deterministic serialization of scenario results, for byte-identity pins.

Refactors of the engine and the fabric are only safe because every registered
scenario must keep producing a **byte-identical** result.  "Byte-identical"
needs a precise meaning: this module renders a
:class:`~repro.simulation.scenario.ScenarioResult` into a canonical JSON
document — every dataset record, every crawl snapshot, every stats block,
every counter — and hashes it, whole and per top-level block.  Two results
are equivalent iff their fingerprints match.

``tests/golden/scenario_fingerprints.json`` holds the table every scenario is
pinned against; it was generated on the object-per-event reference engine
that the current :class:`~repro.simulation.engine.Engine` replaced.

The config block is deliberately excluded: it is an input.  Everything the
simulation *computed* is included.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List

from repro.simulation.scenario import ScenarioResult


def _canonical(value: object) -> object:
    """Recursively coerce a value into JSON-stable plain data.

    Sets (PID sets in crawl snapshots, protocol sets in stats) are sorted by
    their string form; tuples become lists; dataclasses render field-wise;
    anything else must already be a JSON scalar.
    """
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


#: per stats block, the samples-dropped counters the program no longer keeps,
#: each as (counter, total it was counted against, the samples kept): every
#: one was that total less the samples kept, so the pinned tables, generated
#: while the program kept them, still apply to the same runs
_DROPPED_SAMPLES = {
    "netmodel": [("rtt_samples_dropped", "rpc_messages", "rtt_samples")],
    "faults": [("recovery_samples_dropped", "recovered_peers", "recovery_delays")],
    "bandwidth": [
        ("transfer_samples_dropped", "transfers", "transfer_sizes"),
        ("utilization_samples_dropped", None, "utilization_samples"),
    ],
}


def _stats_blob(block: str, stats) -> object:
    """A runtime's stats block field by field, plus its dropped-sample counts."""
    blob = _canonical(stats)
    if stats is None:
        return blob
    for counter, total, samples in _DROPPED_SAMPLES[block]:
        kept = len(getattr(stats, samples))
        if total is None:
            # No total is kept for it, but a sample is dropped only once the
            # list is full: below the cap nothing was dropped.
            assert kept < getattr(stats, f"max_{samples}"), counter
            blob[counter] = 0
        else:
            blob[counter] = getattr(stats, total) - kept
    return blob


def _dataset_blob(dataset) -> dict:
    """A measurement dataset field by field, its connection and change logs
    as one :class:`~repro.core.records.ConnectionRecord` /
    :class:`~repro.core.records.MetaChangeRecord` per row."""
    fields = {f.name: getattr(dataset, f.name) for f in dataclasses.fields(dataset)}
    fields["connections"] = list(dataset.connections)
    fields["changes"] = list(dataset.changes)
    return _canonical(fields)


def _crawl_blobs(result: ScenarioResult) -> List[dict]:
    return [
        {
            "started_at": snap.started_at,
            "finished_at": snap.finished_at,
            "discovered": sorted(str(p) for p in snap.discovered),
            "reachable": sorted(str(p) for p in snap.reachable),
            "unreachable": sorted(str(p) for p in snap.unreachable),
            "queries_sent": snap.queries_sent,
        }
        for snap in result.crawls.snapshots
    ]


def result_blob(result: ScenarioResult) -> dict:
    """Everything the simulation computed, as canonical plain data."""
    return {
        "events_processed": result.events_processed,
        "version_changes": result.version_changes,
        "role_flips": result.role_flips,
        "autonat_flips": result.autonat_flips,
        "datasets": {
            label: _dataset_blob(dataset)
            for label, dataset in sorted(result.datasets.items())
        },
        "crawls": _crawl_blobs(result),
        "content": _canonical(result.content),
        "adversary": _canonical(result.adversary),
        "netmodel": _stats_blob("netmodel", result.netmodel),
        "faults": _stats_blob("faults", result.faults),
        "bandwidth": _stats_blob("bandwidth", result.bandwidth),
        "identity_keys": dict(sorted(result.identity_keys.items())),
        "population": len(result.population.profiles),
    }


def _digest(value: object) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_fingerprint(result: ScenarioResult) -> str:
    """SHA-256 over the canonical JSON rendering of :func:`result_blob`."""
    return _digest(result_blob(result))


def block_fingerprints(result: ScenarioResult) -> Dict[str, str]:
    """SHA-256 per top-level :func:`result_blob` block, in blob order — a
    fingerprint mismatch can then name the block that diverged."""
    return {key: _digest(value) for key, value in result_blob(result).items()}
