"""The discrete-event simulation engine.

Single-threaded and deterministic: timestamped callbacks drained in ascending
``(time, sequence)`` order.  Simulated time is measured in seconds; scenarios
run for one to fourteen simulated days, which corresponds to the paper's
measurement periods.

One heap, three ways in, two entry shapes, one end:

* :meth:`Engine.schedule` / :meth:`Engine.schedule_at` push a
  ``(time, seq, event)`` tuple onto the binary heap and return the
  :class:`Event` handle, which can be cancelled (:class:`PeriodicTask` needs
  that).  Tuple comparison never reaches the event because the sequence
  number is unique, and a live count of cancelled-but-still-queued events
  keeps :meth:`Engine.pending` O(1).
* :meth:`Engine.schedule_drop` pushes a bare ``(time, seq, callback, args)``
  tuple: no :class:`Event`, no back-pointer, no cancelled flag.  The fabric's
  hot paths (session churn, contacts, identify deliveries, behaviour ticks)
  never cancel, so this saves one allocation and two attribute writes per
  event.
* :meth:`Engine.schedule_bulk` puts a whole batch of homogeneous events
  (every peer's initial session arrival) on the same heap as bare tuples with
  one pass + ``heapify``.  The not-yet-arrived sessions make the heap up
  to ``n_peers`` entries deeper for the rest of the run; measured on
  ``passive-steady`` (1 200 peers x 1.5 d, 398 301 events) the drain takes
  3.16-3.51 s that way and 3.35-3.67 s with a second, pre-sorted event store
  merged in (CHANGES.md, PR 21) - no resolvable cost, and the drain loop is
  "peek, pop, skip-if-cancelled, call".
* An engine built with ``end`` never runs past it (:meth:`Engine.run_until`
  rejects a later time), so an event due after it can never fire and is
  counted instead of stored.  A drop or bulk event past the end is not pushed
  at all; :meth:`Engine.schedule` / :meth:`Engine.schedule_at` return a
  handle for it that holds no callback and no args, whose cancel still
  counts.  :meth:`Engine.pending` includes the never-due events, exactly as
  if they were queued.  A :class:`~repro.simulation.scenario.Scenario` ends
  its engine at ``config.duration``, past which most of a short run's
  schedules fall (71 % on ``setup-heavy``); every other engine ends at
  infinity.

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
a queue is a reference cycle.  :meth:`Engine.clear` drops it, and with it the
callbacks of every handle still queued, which is how a finished
:class:`~repro.simulation.scenario.Scenario` leaves nothing that only the
cyclic collector could free.  A never-due handle is out of its reach, which is
why it never holds a callback: a :class:`PeriodicTask` whose next fire falls
past the end would otherwise keep itself alive through it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

_INF = float("inf")


class _Overdue:
    """The events of one queue that fall after the engine's end: counted,
    never stored.  A never-due handle's cancel is counted here, and
    :meth:`Engine.clear` starts a new one, so cancelling a handle from before
    the clear changes nothing (as for a queued handle, which the clear
    cancelled)."""

    __slots__ = ("count", "_cancelled_pending")

    def __init__(self) -> None:
        self.count = 0
        self._cancelled_pending = 0


class Event:
    """A scheduled callback; cancelling marks it dead and drops the callback."""

    __slots__ = ("time", "callback", "args", "cancelled", "_ledger")

    def __init__(self, time: float, callback: Callable[..., None], args: Tuple[Any, ...]):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: where a cancel is counted while the event is pending: its engine
        #: when queued, the engine's :class:`_Overdue` when never due
        self._ledger: Optional[Union["Engine", _Overdue]] = None

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        # A PeriodicTask holds its pending event, whose callback is the task's
        # bound method: forgetting it leaves no cycle behind.
        self.callback = self.args = None
        ledger = self._ledger
        if ledger is not None:
            ledger._cancelled_pending += 1
            self._ledger = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.1f}, {name}, cancelled={self.cancelled})"


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

    def __init__(self, start_time: float = 0.0, end: float = _INF) -> None:
        if not start_time <= end:
            raise ValueError(f"end ({end}) precedes start_time ({start_time})")
        self._now = start_time
        self._end = end
        #: events due after ``end``, counted instead of queued
        self._overdue = _Overdue()
        #: ``(time, seq, event)`` and ``(time, seq, callback, args)`` entries
        self._heap: List[tuple] = []
        self._sequence = itertools.count()
        #: cancelled events still sitting in the heap (popped lazily)
        self._cancelled_pending = 0
        self.events_processed = 0
        # Progress hook (repro.obs.progress): when set, the drain loop invokes
        # the callback every `_progress_every` processed events.  The unset
        # cost is one falsy check per event.
        self._progress_callback: Optional[Callable[[float, int, int], None]] = None
        self._progress_every = 0
        self._progress_next = 0

    def set_progress(
        self, callback: Optional[Callable[[float, int, int], None]], every: int = 20_000
    ) -> None:
        """Invoke ``callback(now, events_processed, pending)`` every ``every``
        drained events (run progress); ``callback=None`` detaches the hook."""
        if callback is None:
            self._progress_callback = None
            self._progress_every = 0
            return
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

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        if not self._now <= time < _INF:
            raise ValueError(f"event time must be finite and >= now ({self._now}), got {time}")
        # float(): an int time must not leak into `now` (see schedule_bulk).
        time = float(time)
        seq = next(self._sequence)
        if time > self._end:
            overdue = self._overdue
            overdue.count += 1
            event = Event(time, None, None)
            event._ledger = overdue
            return event
        event = Event(time, callback, args)
        event._ledger = self
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if not 0.0 <= delay < _INF:
            raise ValueError(f"delay must be non-negative and finite, got {delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_drop(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule a fire-and-forget callback after ``delay`` seconds.

        Identical ordering semantics to :meth:`schedule` (one sequence number
        is consumed per call), but the caller receives no handle and the event
        can never be cancelled, so no :class:`Event` is allocated.  Hot paths
        that never cancel should prefer it.
        """
        if not 0.0 <= delay < _INF:
            raise ValueError(f"delay must be non-negative and finite, got {delay}")
        time = self._now + delay
        seq = next(self._sequence)
        if time > self._end:
            self._overdue.count += 1
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
        :meth:`schedule_at` calls would.  Bulk events cannot be cancelled.
        """
        if len(times) != len(payloads):
            raise ValueError("times and payloads must have equal length")
        now = self._now
        for time in times:
            if not now <= time < _INF:
                raise ValueError(f"event time must be finite and >= now ({now}), got {time}")
        # float(): an int time must not leak into `now` and from there into
        # dataset timestamps.  The heap is mutated in place because a callback
        # may call this mid-drain, while _drain holds an alias to it.
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
        self._overdue.count += overdue

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued, never-due ones
        included."""
        overdue = self._overdue
        return (
            len(self._heap) - self._cancelled_pending + overdue.count - overdue._cancelled_pending
        )

    def clear(self) -> None:
        """Drop every queued event; a handle still held elsewhere ends up
        cancelled, without its callback."""
        for entry in self._heap:
            if len(entry) == 3:
                entry[2].cancel()
        self._heap.clear()
        self._cancelled_pending = 0
        self._overdue = _Overdue()

    # -- draining ----------------------------------------------------------------

    def _drain(self, end_time: Optional[float]) -> None:
        """Pop the heap in ``(time, seq)`` order, optionally only events with
        ``time <= end_time``."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            time = heap[0][0]
            if end_time is not None and time > end_time:
                return
            entry = pop(heap)
            if len(entry) == 4:
                callback, args = entry[2], entry[3]
            else:
                event = entry[2]
                if event.cancelled:
                    self._cancelled_pending -= 1
                    continue
                event._ledger = None
                callback, args = event.callback, event.args
            self._now = time
            self.events_processed += 1
            callback(*args)
            if self._progress_every and self.events_processed >= self._progress_next:
                self._emit_progress()

    def run_until(self, end_time: float) -> None:
        """Process events with ``time <= end_time``; leaves ``now == end_time``."""
        if not end_time >= self._now:  # also true for NaN, which would never end
            raise ValueError("end_time precedes current simulated time")
        if end_time > self._end:
            raise ValueError(f"end_time {end_time} is past the engine's end ({self._end})")
        self._drain(end_time)
        self._now = end_time

    def run(self) -> None:
        """Drain every queued event (useful for small unit-test scenarios);
        with an ``end``, nothing after it is queued."""
        self._drain(None)


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
        self._stopped = False
        self._event: Optional[Event] = None
        delay = interval if start_delay is None else start_delay
        self._event = engine.schedule(delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.callback(self.engine.now)
        if not self._stopped:
            self._event = self.engine.schedule(self.interval, self._fire)

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
