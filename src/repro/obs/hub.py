"""The streaming metrics hub: counters, gauges, and fixed-bucket histograms.

Every report under :mod:`repro.analysis` walks a finished in-memory
:class:`~repro.simulation.scenario.ScenarioResult`; at million-peer scale and
multi-week horizons that post-hoc model is the memory wall.  The hub is the
other half: named instruments observed *during* the run, aggregated into
fixed-width windows of simulated time, each window flushed the moment it
closes — to a JSONL export, to an in-memory ring buffer with a bounded cap,
and to any subscribed live consumers.

Determinism contract (pinned by ``tests/test_obs.py``):

* **Windowing** is a pure function of simulated time: an observation at time
  ``t`` lands in window ``int(t // window)``, clamped to the final window of
  the configured horizon (so an event exactly at the end boundary never opens
  a window the run will not close).
* **Order-independence inside a window**: counters take integer increments
  (exact commutative addition), gauge and histogram float sums use
  :func:`math.fsum` (exactly-rounded, so any interleaving of the same
  observations renders the same bytes), and min/max/bucket counts are
  order-free by construction.  The hypothesis property in the test suite
  feeds shuffled interleavings and asserts byte-identical JSONL.
* **Serialization** is canonical: ``json.dumps(sort_keys=True)`` with compact
  separators and floats rounded to 6 decimals, one line per closed window.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from repro.artifacts import TMP_SUFFIX

#: schema tag carried by every metrics.jsonl line
METRICS_SCHEMA = "repro-metrics/1"

#: closed windows kept in the in-memory ring buffer (older ones are dropped
#: from memory once flushed — bounded memory at any horizon)
RING_CAPACITY = 288

#: default histogram bounds for durations in simulated seconds (upper edges;
#: one extra overflow bucket is appended past the last bound)
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


def _round6(value: float) -> float:
    return round(float(value), 6)


class _Window:
    """Raw observations of one open window (aggregated only at close)."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, List[float]] = {}
        self.histograms: Dict[str, List[float]] = {}


def render_line(payload: Dict) -> str:
    """One metrics.jsonl line (canonical key order, compact separators)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass
class MetricsSummary:
    """Picklable digest of a finished hub (rides ``ScenarioResult.metrics``)."""

    #: window width in simulated seconds
    window_seconds: float
    #: closed windows over the whole run
    windows_closed: int
    #: instrument observations recorded (inc/gauge/observe calls)
    observations: int
    #: run-total counter values (summed over every closed window)
    counters: Dict[str, int] = field(default_factory=dict)
    #: upper bucket edges per histogram instrument
    histogram_bounds: Dict[str, List[float]] = field(default_factory=dict)
    #: the ring-buffer tail: the last ``RING_CAPACITY`` window payloads
    windows: List[Dict] = field(default_factory=list)
    #: closed windows no longer in memory (flushed to JSONL, then evicted)
    windows_dropped: int = 0


class MetricsHub:
    """Owns the named instruments and the deterministic windowing clock."""

    def __init__(self, window: float, jsonl_path: Optional[str] = None) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)
        self.jsonl_path = jsonl_path
        self.recent: deque = deque(maxlen=RING_CAPACITY)
        self._open: Dict[int, _Window] = {}
        self._next_to_close = 0
        self._n_windows: Optional[int] = None
        self._bounds: Dict[str, Tuple[float, ...]] = {}
        self._subscribers: List[Callable[[Dict], None]] = []
        self._handle: Optional[TextIO] = None
        self._finalized = False
        self.windows_closed = 0
        self.observations = 0
        self.counter_totals: Dict[str, int] = {}

    # -- configuration ---------------------------------------------------------------

    def set_horizon(self, duration: float) -> None:
        """Fix the run length: observations past the end fold into the final
        window, and :meth:`finalize` closes exactly ``ceil(duration/window)``
        windows (empty ones included, so the series has no gaps)."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        self._n_windows = max(1, int(math.ceil(duration / self.window - 1e-9)))

    def register_histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS
    ) -> None:
        """Declare a histogram's upper bucket edges (strictly ascending)."""
        edges = tuple(float(b) for b in bounds)
        if not edges or any(later <= earlier for later, earlier in zip(edges[1:], edges)):
            raise ValueError(f"histogram bounds must be strictly ascending: {bounds}")
        existing = self._bounds.get(name)
        if existing is not None and existing != edges:
            raise ValueError(f"histogram {name!r} already registered with other bounds")
        self._bounds[name] = edges

    def subscribe(self, callback: Callable[[Dict], None]) -> None:
        """Call ``callback(payload)`` the moment each window closes."""
        self._subscribers.append(callback)

    # -- observations ----------------------------------------------------------------

    def _index(self, now: float) -> int:
        index = int(now // self.window)
        if self._n_windows is not None and index >= self._n_windows:
            index = self._n_windows - 1
        if index < self._next_to_close:
            # Never re-open a closed window: a late observation (possible only
            # through a mis-ordered external caller) folds into the frontier.
            index = self._next_to_close
        return index

    def _at(self, index: int) -> _Window:
        window = self._open.get(index)
        if window is None:
            window = self._open[index] = _Window()
        return window

    def inc(self, name: str, now: float, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` in the window containing ``now``."""
        self.inc_at(self._index(now), name, value)

    def inc_at(self, index: int, name: str, value: int = 1) -> None:
        """Counter increment into an explicit window index (tick-time deltas)."""
        if not isinstance(value, int):
            raise TypeError(f"counter increments must be ints, got {value!r}")
        self.observations += 1
        counters = self._at(index).counters
        counters[name] = counters.get(name, 0) + value

    def gauge(self, name: str, now: float, value: float) -> None:
        """Record one sample of gauge ``name`` (windows keep count/min/max/sum)."""
        self.observations += 1
        self._at(self._index(now)).gauges.setdefault(name, []).append(float(value))

    def observe(self, name: str, now: float, value: float) -> None:
        """Record ``value`` into histogram ``name`` (default time buckets when
        the instrument was not explicitly registered)."""
        if name not in self._bounds:
            self._bounds[name] = DEFAULT_TIME_BUCKETS
        self.observations += 1
        self._at(self._index(now)).histograms.setdefault(name, []).append(float(value))

    # -- windowing -------------------------------------------------------------------

    def advance(self, now: float) -> None:
        """Close every window that ends at or before ``now`` (except the final
        horizon window, which only :meth:`finalize` closes)."""
        target = int(now // self.window)
        if self._n_windows is not None:
            target = min(target, self._n_windows - 1)
        while self._next_to_close < target:
            self._close_next()

    def _close_next(self) -> None:
        index = self._next_to_close
        self._next_to_close = index + 1
        window = self._open.pop(index, None) or _Window()
        counters = {name: window.counters[name] for name in sorted(window.counters)}
        gauges: Dict[str, Dict[str, float]] = {}
        for name in sorted(window.gauges):
            samples = window.gauges[name]
            gauges[name] = {
                "count": len(samples),
                "min": _round6(min(samples)),
                "max": _round6(max(samples)),
                "sum": _round6(math.fsum(samples)),
            }
        histograms: Dict[str, Dict[str, object]] = {}
        for name in sorted(window.histograms):
            samples = window.histograms[name]
            bounds = self._bounds[name]
            buckets = [0] * (len(bounds) + 1)
            for value in samples:
                position = len(bounds)
                for i, bound in enumerate(bounds):
                    if value <= bound:
                        position = i
                        break
                buckets[position] += 1
            histograms[name] = {
                "count": len(samples),
                "sum": _round6(math.fsum(samples)),
                "buckets": buckets,
            }
        payload = {
            "schema": METRICS_SCHEMA,
            "index": index,
            "start": _round6(index * self.window),
            "end": _round6((index + 1) * self.window),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
        self.windows_closed += 1
        for name, value in counters.items():
            self.counter_totals[name] = self.counter_totals.get(name, 0) + value
        self.recent.append(payload)
        if self.jsonl_path is not None:
            if self._handle is None:
                self._handle = open(self.jsonl_path + TMP_SUFFIX, "w")
            self._handle.write(render_line(payload))
            self._handle.write("\n")
        for callback in self._subscribers:
            callback(payload)

    def finalize(self) -> MetricsSummary:
        """Close the remaining windows (through the horizon when one is set),
        move the JSONL export from ``<path>.tmp`` into place (an abandoned hub
        leaves only the ``.tmp``), and return the picklable summary."""
        if self._finalized:
            raise RuntimeError("MetricsHub.finalize() called twice")
        self._finalized = True
        if self._n_windows is not None:
            target = self._n_windows
        else:
            target = max(self._open, default=self._next_to_close - 1) + 1
        while self._next_to_close < target:
            self._close_next()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            os.replace(self.jsonl_path + TMP_SUFFIX, self.jsonl_path)
        windows = list(self.recent)
        return MetricsSummary(
            window_seconds=self.window,
            windows_closed=self.windows_closed,
            observations=self.observations,
            counters=dict(sorted(self.counter_totals.items())),
            histogram_bounds={
                name: list(bounds) for name, bounds in sorted(self._bounds.items())
            },
            windows=windows,
            windows_dropped=self.windows_closed - len(windows),
        )
