"""The discrete-event simulation engine.

Single-threaded and deterministic: timestamped callbacks drained in ascending
``(time, sequence)`` order.  Simulated time is measured in seconds; scenarios
run for one to fourteen simulated days, which corresponds to the paper's
measurement periods.

One heap, one entry shape, three ways in, one end:

* Every heap entry is a ``(time, seq, callback, args)`` tuple.  Tuple
  comparison never reaches the callback because the sequence number is
  unique.  Nothing is ever cancelled, so the drain loop is "peek, pop, call".
* :meth:`Engine.schedule` / :meth:`Engine.schedule_at` push one entry and
  return nothing.
* :meth:`Engine.schedule_bulk` puts a whole batch of homogeneous events
  (every peer's initial session arrival) on the same heap with one pass +
  ``heapify``.  The not-yet-arrived sessions make the heap up to ``n_peers``
  entries deeper for the rest of the run; measured on ``passive-steady``
  (1 200 peers x 1.5 d, 398 301 events) the drain takes 3.16-3.51 s that way
  and 3.35-3.67 s with a second, pre-sorted event store merged in - no
  resolvable cost.
* An engine built with ``end`` never runs past it (:meth:`Engine.run_until`
  rejects a later time), so an event due after it can never fire and is
  counted instead of stored.  :meth:`Engine.pending` includes the never-due
  events, exactly as if they were queued.  A
  :class:`~repro.simulation.scenario.Scenario` ends its engine at
  ``config.duration``, past which most of a short run's schedules fall (71 %
  on ``setup-heavy``); every other engine ends at infinity.

Determinism invariant: every schedule call consumes sequence numbers from the
*same* global counter in call order, so two events at the same timestamp fire
in schedule order whichever way they were scheduled, and a never-due event
consumes its number too.  ``tests/test_engine_ordering.py`` checks arbitrary
interleavings against a sort-by-``(time, seq)`` reference scheduler, and an
engine with an end against one without.

Every entry point rejects a time before ``now`` and a non-finite delay or
time: a NaN would compare false against every other key and fire out of order
with ``now == nan``.  The checks are written ``not lo <= x < inf`` so that a
NaN fails them too.

Queued callbacks are mostly bound methods of objects that hold the engine, so
a queue is a reference cycle.  :meth:`Engine.clear` drops it, which is how a
finished :class:`~repro.simulation.scenario.Scenario` leaves nothing that only
the cyclic collector could free.  A never-due event is not stored at all, so a
:class:`PeriodicTask` whose next fire falls past the end is referenced by
nothing once its last fire returns.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Sequence

_INF = float("inf")


class Engine:
    """The event loop: schedule callbacks and advance simulated time.

    The observable contract:

    * events run in ascending ``(time, sequence)`` order, where the sequence
      number is consumed from one global counter at *schedule* time — two
      events at the same timestamp therefore fire in schedule order;
    * :meth:`run_until` processes events with ``time <= end_time`` and leaves
      ``now == end_time``.  An event sitting exactly at ``end_time`` fires in
      the **first** ``run_until`` call that reaches that boundary and never
      again in a later call (exactly-once boundary semantics — pinned by
      ``tests/test_simulation_engine.py``);
    * with an ``end``, :meth:`run_until` never goes past it, and an event due
      after it is never stored (see the module docstring).
    """

    def __init__(self, end: float = _INF) -> None:
        if not 0.0 <= end:
            raise ValueError(f"end ({end}) precedes the start (0.0)")
        self._now = 0.0
        self._end = end
        #: events due after ``end``, counted instead of queued
        self._overdue = 0
        #: ``(time, seq, callback, args)`` entries
        self._heap: List[tuple] = []
        self._sequence = itertools.count()
        self.events_processed = 0
        # Progress hook (repro.obs.progress): when set, the drain loop invokes
        # the callback every `_progress_every` processed events.  The unset
        # cost is one falsy check per event.
        self._progress_callback: Optional[Callable[[float, int, int], None]] = None
        self._progress_every = 0
        self._progress_next = 0

    def set_progress(
        self, callback: Callable[[float, int, int], None], every: int = 20_000
    ) -> None:
        """Invoke ``callback(now, events_processed, pending)`` every ``every``
        drained events (run progress)."""
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self._progress_callback = callback
        self._progress_every = every
        self._progress_next = self.events_processed + every

    def _emit_progress(self) -> None:
        self._progress_next = self.events_processed + self._progress_every
        self._progress_callback(self._now, self.events_processed, self.pending())

    @property
    def now(self) -> float:
        return self._now

    # -- scheduling --------------------------------------------------------------

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        if not self._now <= time < _INF:
            raise ValueError(f"event time must be finite and >= now ({self._now}), got {time}")
        seq = next(self._sequence)
        if time > self._end:
            self._overdue += 1
        else:
            # float(): an int time must not leak into `now` (see schedule_bulk).
            heapq.heappush(self._heap, (float(time), seq, callback, args))

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if not 0.0 <= delay < _INF:
            raise ValueError(f"delay must be non-negative and finite, got {delay}")
        time = self._now + delay
        seq = next(self._sequence)
        if time > self._end:
            self._overdue += 1
        else:
            heapq.heappush(self._heap, (time, seq, callback, args))

    def schedule_bulk(
        self,
        times: Sequence[float],
        callback: Callable[[Any], None],
        payloads: Sequence[Any],
    ) -> None:
        """Schedule ``callback(payloads[i])`` at absolute time ``times[i]`` for all i.

        Sequence numbers are consumed contiguously in input order, so ties at
        identical timestamps resolve exactly as ``len(times)`` individual
        :meth:`schedule_at` calls would.
        """
        if len(times) != len(payloads):
            raise ValueError("times and payloads must have equal length")
        now = self._now
        for time in times:
            if not now <= time < _INF:
                raise ValueError(f"event time must be finite and >= now ({now}), got {time}")
        # float(): an int time must not leak into `now` and from there into
        # dataset timestamps.  The heap is mutated in place because a callback
        # may call this mid-drain, while run_until holds an alias to it.
        end = self._end
        sequence = self._sequence
        heap = self._heap
        overdue = 0
        for time, payload in zip(times, payloads):
            seq = next(sequence)
            if time > end:
                overdue += 1
            else:
                heap.append((float(time), seq, callback, (payload,)))
        heapq.heapify(heap)
        self._overdue += overdue

    def pending(self) -> int:
        """Number of events still queued, never-due ones included."""
        return len(self._heap) + self._overdue

    def clear(self) -> None:
        """Drop every queued event and the count of never-due ones."""
        self._heap.clear()
        self._overdue = 0

    # -- draining ----------------------------------------------------------------

    def run_until(self, end_time: float) -> None:
        """Process events with ``time <= end_time`` in ``(time, seq)`` order;
        leaves ``now == end_time``."""
        if not end_time >= self._now:  # also true for NaN, which would never end
            raise ValueError("end_time precedes current simulated time")
        if end_time > self._end:
            raise ValueError(f"end_time {end_time} is past the engine's end ({self._end})")
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= end_time:
            time, _, callback, args = pop(heap)
            self._now = time
            self.events_processed += 1
            callback(*args)
            if self._progress_every and self.events_processed >= self._progress_next:
                self._emit_progress()
        self._now = end_time


class PeriodicTask:
    """Re-schedules a callback at a fixed interval (peerstore polling, trims).

    The hydra-booster changes in the paper are literally "two new
    PeriodicTasks"; this mirrors that abstraction.
    """

    def __init__(
        self,
        engine: Engine,
        interval: float,
        callback: Callable[[float], None],
        start_delay: Optional[float] = None,
    ) -> None:
        if not 0.0 < interval < _INF:
            raise ValueError(f"interval must be positive and finite, got {interval}")
        self.engine = engine
        self.interval = interval
        self.callback = callback
        engine.schedule(interval if start_delay is None else start_delay, self._fire)

    def _fire(self) -> None:
        self.callback(self.engine.now)
        self.engine.schedule(self.interval, self._fire)
