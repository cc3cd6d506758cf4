"""Run-progress heartbeat: wall-clock liveness lines for long simulations.

Everything in :mod:`repro.obs.hub` is deterministic simulated-time data;
wall-clock throughput is the one signal that must *never* enter the metrics
artifacts (it would break byte-identity).  This tracer keeps it on stderr:
enabled via the ``REPRO_PROGRESS`` environment variable (inherited by
fork-based sweep worker processes), it rides the engine's progress
hook and prints one line roughly per simulated hour::

    [n=1500 seed=7] t=4.0h  1.21M events  heap=20.3k  54.1k ev/s

The hook itself is a cheap integer comparison per drained event (see
``Engine.set_progress``), so leaving the env var unset costs nothing
measurable — the overhead gate (``benchmarks/bench_overhead.py obs``)
bounds the whole subsystem.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Optional, TextIO

from repro.simulation.churn_models import HOUR
from repro.simulation.engine import Engine

#: set to 1/true/yes/on to print per-simulated-hour progress lines to stderr
PROGRESS_ENV = "REPRO_PROGRESS"


def progress_enabled() -> bool:
    """Whether ``REPRO_PROGRESS`` asks for run tracing."""
    return os.environ.get(PROGRESS_ENV, "").strip().lower() in ("1", "true", "yes", "on")


def _format_count(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k"
    return f"{value:.0f}"


class EngineTracer:
    """Prints a progress line each time simulated time crosses an interval."""

    def __init__(
        self,
        label: str,
        stream: Optional[TextIO] = None,
        sim_interval: float = HOUR,
        check_every: int = 20_000,
    ) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.sim_interval = sim_interval
        self.check_every = check_every
        self._next_sim = sim_interval
        self._last_wall = time.perf_counter()
        self._last_events = 0

    def install(self, engine: Engine) -> None:
        engine.set_progress(self._on_progress, every=self.check_every)

    def _on_progress(self, now: float, events: int, pending: int) -> None:
        if now < self._next_sim:
            return
        wall = time.perf_counter()
        elapsed = wall - self._last_wall
        rate = (events - self._last_events) / elapsed if elapsed > 0 else 0.0
        print(
            f"[{self.label}] t={now / HOUR:.1f}h  "
            f"{_format_count(events)} events  heap={_format_count(pending)}  "
            f"{_format_count(rate)} ev/s",
            file=self.stream,
        )
        self.stream.flush()
        self._last_wall = wall
        self._last_events = events
        while self._next_sim <= now:
            self._next_sim += self.sim_interval


def maybe_trace(engine: Engine, label: str) -> Optional[EngineTracer]:
    """Attach an :class:`EngineTracer` when ``REPRO_PROGRESS`` is set."""
    if not progress_enabled():
        return None
    tracer = EngineTracer(label)
    tracer.install(engine)
    return tracer
