"""Sharded scenario execution: partition the population over sub-simulations.

A faster event loop buys roughly constant-factor speedups; the road to
million-peer populations is horizontal.  ``engine="sharded"`` splits the
configured population into ``engine_shards`` near-equal, independently-seeded
sub-populations, runs each on its own single fabric (optionally in worker
processes via ``REPRO_BENCH_WORKERS``, reusing the parallel period runner's
fan-out), and merges the per-shard results deterministically in shard order.

Semantics, stated precisely:

* **Deterministic**: the same sharded config produces byte-identical results
  on every run and for every worker count.  Shard ``i`` derives its seed as
  ``seed + 100003 * (i + 1)`` (a prime stride, so shard seed spaces never
  collide with each other or with the base seed's +10/+20/... offsets), and
  the merge walks shards in index order.
* **Not byte-identical to the single fabric**: each shard is a
  self-contained network with its own measurement vantage points, so
  cross-shard connections never form.  The merged result models ``S``
  federated observers of disjoint population slices — throughput scales,
  per-dataset aggregate shapes are preserved, but individual records differ
  from a single fabric of the same size.  The scenario fingerprint table
  (``tests/golden/scenario_fingerprints.json``) therefore pins the single
  fabric only; sharded mode is pinned by its own determinism and
  merge-correctness tests.
* **No adversaries**: attack scenarios reason about one global keyspace
  (eclipse neighbourhoods, Sybil flooding of specific routing tables), which
  partitioning would silently weaken.  Sharded runs of adversarial configs
  raise instead of producing misleading numbers.

Merge rules (also exercised by tests/test_sharded.py):

* datasets — per label: peer records merged (PID spaces are disjoint across
  shards), connection/change lists concatenated in shard order then stably
  sorted by time, snapshots *summed* per timestamp (every shard polls on the
  same cadence, so the merged snapshot is the federation-wide gauge reading).
* crawls — snapshots concatenated in shard order.
* scalar counters (events processed, flips, content/netmodel/faults stats) —
  summed field-wise; list fields concatenate, dict fields sum per key,
  optional floats take the max non-``None`` value, and ``max_*`` bounds are
  configuration rather than measurement and keep the first shard's value.
* metrics (repro.obs) — every shard retains its complete window series;
  same-index windows combine field-wise in shard order and the merged
  ``metrics.jsonl`` is written once after the merge, so the streaming series
  is byte-identical for every worker count.
* spans (repro.obs.spans) — per-kind operation counts sum, kept traces
  concatenate in shard order under a re-applied retention cap, and the
  merged ``traces.jsonl`` is written once after the merge — byte-identical
  for every worker count.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, TypeVar

from repro.core.records import MeasurementDataset, PeerRecord
from repro.crawler.monitor import CrawlMonitor
from repro.simulation.population import Population

#: prime seed stride between shards; large enough that the per-subsystem
#: +10..+80 offsets of neighbouring shards can never overlap
SHARD_SEED_STRIDE = 100003

T = TypeVar("T")


def shard_sizes(n_peers: int, shards: int) -> List[int]:
    """Near-equal split of ``n_peers`` over ``shards`` (empty shards dropped).

    The first ``n_peers % shards`` shards get one extra peer, so sizes differ
    by at most one and the split is a pure function of the two inputs.
    """
    if n_peers < 1:
        raise ValueError(f"n_peers must be >= 1, got {n_peers}")
    shards = min(shards, n_peers)
    base, extra = divmod(n_peers, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def shard_seed(base_seed: int, shard: int) -> int:
    return base_seed + SHARD_SEED_STRIDE * (shard + 1)


def shard_configs(config) -> List:
    """Build the per-shard single-fabric configs for a sharded scenario."""
    from repro.simulation.scenario import ScenarioConfig  # circular-import guard

    assert isinstance(config, ScenarioConfig)
    if config.population.adversary is not None:
        raise ValueError(
            "sharded scenarios do not support adversaries: attacks target one "
            "global keyspace, which partitioning would silently weaken; run "
            "adversarial configs on engine='vectorized'"
        )
    sizes = shard_sizes(config.population.n_peers, config.engine_shards)
    obs = config.population.obs
    if obs is not None:
        # Shards must not race for the shared JSONL file; each shard instead
        # retains its complete window series in memory, and the merged series
        # is written once by run_sharded_scenario.
        obs = dataclasses.replace(obs, jsonl_path=None, retain_windows=True)
    trace = config.population.trace
    if trace is not None:
        # Same discipline as metrics: shards keep their traces in memory and
        # the merged traces.jsonl is written once by run_sharded_scenario.
        trace = dataclasses.replace(trace, jsonl_path=None)
    configs = []
    for index, size in enumerate(sizes):
        seed = shard_seed(config.seed, index)
        population = dataclasses.replace(config.population, n_peers=size, seed=seed)
        if obs is not None:
            population = dataclasses.replace(population, obs=obs)
        if trace is not None:
            population = dataclasses.replace(population, trace=trace)
        configs.append(
            dataclasses.replace(
                config,
                engine="vectorized",
                seed=seed,
                # NetModelRuntime/FaultRuntime seed from population.config.seed,
                # so the population seed must be derived per shard as well.
                population=population,
            )
        )
    return configs


#: connection-id range width per shard; far above any per-shard connection count
SHARD_CONNECTION_ID_STRIDE = 1_000_000_000


def run_shard(config, shard_index: int) -> "ScenarioResult":  # noqa: F821
    """Run one shard; module-level so worker processes can import it by name.

    Connection ids come from a process-global counter, so without a reset the
    sequential path would number shard 1's connections after shard 0's while
    the process-pool path (fresh interpreter per worker) restarts at 1 —
    breaking worker-count invariance.  Each shard instead claims its own
    billion-wide id range, which is deterministic under any execution order
    and keeps ids unique across the merged result.
    """
    import itertools

    import repro.libp2p.connection as connection_module
    from repro.simulation.scenario import Scenario

    connection_module._connection_ids = itertools.count(
        1 + shard_index * SHARD_CONNECTION_ID_STRIDE
    )
    return Scenario(config).run()


def run_sharded_scenario(config, workers: Optional[int] = None):
    """Run ``config`` partitioned over shards and merge the results.

    ``workers=None`` reads ``REPRO_BENCH_WORKERS`` (default sequential);
    the worker count never changes the merged result, only wall time.
    """
    from repro.experiments.runner import run_cells
    from repro.simulation.scenario import ScenarioResult

    configs = shard_configs(config)
    results: List[ScenarioResult] = run_cells(
        run_shard, [(cfg, index) for index, cfg in enumerate(configs)], workers=workers
    )
    merged = merge_shard_results(config, results)
    obs = config.population.obs
    if obs is not None and merged.metrics is not None:
        from repro.obs.hub import ring_tail, write_jsonl

        if obs.jsonl_path is not None:
            write_jsonl(merged.metrics.windows, obs.jsonl_path)
        if not obs.retain_windows:
            # The shards retained every window for the merge; bound the
            # in-memory view back to what the caller's config asked for.
            merged.metrics = ring_tail(merged.metrics, obs.ring_capacity)
    trace = config.population.trace
    if trace is not None and merged.spans is not None and trace.jsonl_path is not None:
        from repro.obs.trace_export import write_traces

        write_traces(merged.spans.traces, trace.jsonl_path)
    return merged


# -- merging ---------------------------------------------------------------------------


def merge_shard_results(config, results: Sequence) -> "ScenarioResult":  # noqa: F821
    from repro.simulation.scenario import ScenarioResult

    if not results:
        raise ValueError("cannot merge zero shard results")
    labels: List[str] = []
    for result in results:
        for label in result.datasets:
            if label not in labels:
                labels.append(label)
    datasets = {
        label: merge_datasets(
            [r.datasets[label] for r in results if label in r.datasets], label
        )
        for label in labels
    }
    crawls = CrawlMonitor()
    for result in results:
        crawls.snapshots.extend(result.crawls.snapshots)
    population = Population(
        config=config.population,
        profiles=[p for r in results for p in r.population.profiles],
    )
    return ScenarioResult(
        config=config,
        datasets=datasets,
        crawls=crawls,
        population=population,
        events_processed=sum(r.events_processed for r in results),
        version_changes=sum(r.version_changes for r in results),
        role_flips=sum(r.role_flips for r in results),
        autonat_flips=sum(r.autonat_flips for r in results),
        content=merge_stats([r.content for r in results]),
        adversary=None,
        netmodel=merge_stats([r.netmodel for r in results]),
        faults=merge_stats([r.faults for r in results]),
        bandwidth=merge_stats([r.bandwidth for r in results]),
        metrics=_merge_metrics([r.metrics for r in results]),
        spans=_merge_spans([r.spans for r in results]),
        # Keyspace positions are per-fabric; report the first shard's vantage
        # points (analyses needing all of them can rerun shard_configs()).
        identity_keys=dict(results[0].identity_keys),
    )


def _merge_metrics(metrics: Sequence) -> Optional["MetricsSummary"]:  # noqa: F821
    """Merge per-shard window series (same-index windows combine field-wise
    in shard order; see :func:`repro.obs.hub.merge_summaries`)."""
    present = [m for m in metrics if m is not None]
    if not present:
        return None
    from repro.obs.hub import merge_summaries

    return merge_summaries(present)


def _merge_spans(spans: Sequence) -> Optional["TraceSummary"]:  # noqa: F821
    """Merge per-shard trace summaries (traces concatenate in shard order and
    the retention cap is re-applied; see
    :func:`repro.obs.trace_export.merge_trace_summaries`)."""
    present = [s for s in spans if s is not None]
    if not present:
        return None
    from repro.obs.trace_export import merge_trace_summaries

    return merge_trace_summaries(present)


def merge_datasets(shards: Sequence[MeasurementDataset], label: str) -> MeasurementDataset:
    """Merge the same-label dataset of every shard into one federation view."""
    if not shards:
        raise ValueError(f"no shard produced dataset {label!r}")
    merged = MeasurementDataset(
        label=label,
        started_at=min(d.started_at for d in shards),
        ended_at=max(d.ended_at for d in shards),
        measurement_role=shards[0].measurement_role,
    )
    snapshot_order: List[float] = []
    snapshot_sums: Dict[float, List[int]] = {}
    for dataset in shards:
        for record in dataset.peers.values():
            # Round-trip through the dict form so shard records stay unshared,
            # exactly like MeasurementDataset.union does.
            merged.merge_peer(PeerRecord.from_dict(record.as_dict()))
        merged.connections.extend(dataset.connections)
        merged.changes.extend(dataset.changes)
        for snap in dataset.snapshots:
            if snap.timestamp not in snapshot_sums:
                snapshot_order.append(snap.timestamp)
                snapshot_sums[snap.timestamp] = [0, 0, 0]
            totals = snapshot_sums[snap.timestamp]
            totals[0] += snap.simultaneous_connections
            totals[1] += snap.known_pids
            totals[2] += snap.connected_pids
    merged.connections.sort(key=lambda c: c.opened_at)
    merged.changes.sort(key=lambda c: c.timestamp)
    snapshot_cls = type(shards[0].snapshots[0]) if shards[0].snapshots else None
    if snapshot_cls is None:
        for dataset in shards[1:]:
            if dataset.snapshots:
                snapshot_cls = type(dataset.snapshots[0])
                break
    if snapshot_cls is not None:
        merged.snapshots = [
            snapshot_cls(
                timestamp=ts,
                simultaneous_connections=snapshot_sums[ts][0],
                known_pids=snapshot_sums[ts][1],
                connected_pids=snapshot_sums[ts][2],
            )
            for ts in sorted(snapshot_order)
        ]
    return merged


#: dataclass fields that are configured bounds, not measurements — first wins
_BOUND_FIELDS = frozenset(
    {"max_rtt_samples", "max_events", "max_transfer_samples", "max_utilization_samples"}
)


def merge_stats(stats: Sequence[Optional[T]]) -> Optional[T]:
    """Field-wise merge of per-shard stats dataclasses.

    ints/floats sum, lists concatenate, dicts sum per key, ``Optional[float]``
    takes the max non-``None`` value, and ``max_*`` bounds keep the first
    shard's value.  ``None`` entries (subsystem absent on that shard) are
    skipped; all-``None`` merges to ``None``.
    """
    present = [s for s in stats if s is not None]
    if not present:
        return None
    cls = type(present[0])
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"cannot merge non-dataclass stats {cls.__name__}")
    merged_kwargs = {}
    for field_info in dataclasses.fields(cls):
        name = field_info.name
        values = [getattr(s, name) for s in present]
        first = values[0]
        if name in _BOUND_FIELDS:
            merged_kwargs[name] = first
        elif "Optional" in str(field_info.type) or any(v is None for v in values):
            # Optional measurements (e.g. partition heal time): the merged
            # value is the latest over shards where the event happened at all.
            non_null = [v for v in values if v is not None]
            merged_kwargs[name] = max(non_null) if non_null else None
        elif isinstance(first, bool):
            merged_kwargs[name] = any(values)
        elif isinstance(first, (int, float)):
            merged_kwargs[name] = sum(values)
        elif isinstance(first, list):
            merged_kwargs[name] = [item for value in values for item in value]
        elif isinstance(first, set):
            merged_kwargs[name] = set().union(*values)
        elif isinstance(first, dict):
            combined: Dict = {}
            for value in values:
                for key, count in value.items():
                    combined[key] = combined.get(key, 0) + count
            merged_kwargs[name] = combined
        else:
            raise TypeError(
                f"no merge rule for field {cls.__name__}.{name} of type "
                f"{type(first).__name__}"
            )
    return cls(**merged_kwargs)
