"""Streaming observability: live counters/gauges/histograms over the fabric.

The source paper is a measurement study — this package is the reproduction
measuring *itself* while it runs, instead of post-hoc over a finished
in-memory result:

* :mod:`repro.obs.hub` — :class:`MetricsHub`: named instruments, a
  deterministic windowing clock, canonical JSONL export, a bounded in-memory
  ring buffer, and live window subscribers.
* :mod:`repro.obs.runtime` — :class:`MetricsRuntime`: attaches the hub to the
  fabric through the :class:`~repro.simulation.fabric.FabricRuntime` protocol
  (dials, RPCs, contacts, identify exchanges) plus windowed deltas of the
  sibling runtimes' totals.
* :mod:`repro.obs.spans` — :class:`SpanTracer`: causal span trees for every
  traced operation (retrievals, provides, identify exchanges, crawler
  walks), deterministically sampled per operation key and riding the
  simulated clocks only.
* :mod:`repro.obs.trace_export` — the single render path behind the
  byte-identical ``traces.jsonl``, the picklable :class:`TraceSummary`, and
  the shared critical-path decomposition.
* :mod:`repro.obs.critical_path` — ``python -m repro.obs.critical_path``:
  top-k slowest traces printed as indented trees with attribution.
* :mod:`repro.obs.progress` — wall-clock progress heartbeat on the engine's
  progress hook (stderr only; never part of the deterministic artifacts).

Enable by setting ``PopulationConfig.obs`` to an :class:`ObsConfig` and/or
``PopulationConfig.trace`` to a :class:`TraceConfig`; the default ``None``
keeps every pre-existing fixed-seed golden byte-identical.
"""

from repro.obs.config import ObsConfig
from repro.obs.hub import (
    DEFAULT_TIME_BUCKETS,
    METRICS_SCHEMA,
    MetricsHub,
    MetricsSummary,
    render_line,
)
from repro.obs.spans import SpanTracer, TraceConfig
from repro.obs.trace_export import (
    TRACE_SCHEMA,
    TraceSummary,
    leaf_attribution,
    render_trace_line,
    write_traces,
)

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "METRICS_SCHEMA",
    "MetricsHub",
    "MetricsSummary",
    "ObsConfig",
    "SpanTracer",
    "TRACE_SCHEMA",
    "TraceConfig",
    "TraceSummary",
    "leaf_attribution",
    "render_line",
    "render_trace_line",
    "write_traces",
]
