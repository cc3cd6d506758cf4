"""The engine is order-equivalent to a sort-by-``(time, seq)`` reference.

``ReferenceScheduler`` below — the re-sort-per-pop queue of SNIPPETS.md
snippet 2 — *is* the reference: there is one engine, and nothing else to
compare it with.  Property tests drive both through identical schedule
interleavings — delayed and absolute single events, bulk batches, mid-drain
cascades — and assert the fired ``(time, tag)`` streams are *identical*,
including the order of timestamp ties.  Times are drawn from a
tiny integer pool precisely to force tie collisions, which is where batched
sequencing would first go wrong.

An engine built with an ``end`` stores nothing due after it.  Random programs
(every way in, periodic tasks, stepped ``run_until`` and ``clear``)
run on an engine with an end and on one without must fire the same events up
to the end and report the same :meth:`~Engine.pending` after every step.
"""

import itertools
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.engine import Engine, PeriodicTask


class ReferenceScheduler:
    """The obviously-correct scheduler: one list, re-sorted by ``(time, seq)``
    before every pop (sequence numbers are unique, so the sort never compares
    callbacks).  Quadratic; only ever used as the tests' reference."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._sequence = itertools.count()
        self._queue = []  # (time, seq, callback, args)

    def schedule_at(self, time, callback, *args):
        self._queue.append((time, next(self._sequence), callback, args))

    def schedule(self, delay, callback, *args):
        self.schedule_at(self.now + delay, callback, *args)

    def schedule_bulk(self, times, callback, payloads):
        for time, payload in zip(times, payloads):
            self.schedule_at(time, callback, payload)

    def pending(self):
        return len(self._queue)

    def run_until(self, end_time):
        while self._queue:
            self._queue.sort(key=lambda entry: entry[:2])
            if self._queue[0][0] > end_time:
                break
            time, _, callback, args = self._queue.pop(0)
            self.now = time
            self.events_processed += 1
            callback(*args)
        self.now = end_time


SCHEDULERS = [ReferenceScheduler, Engine]

#: tiny time pool → many (time, seq) ties
tie_times = st.integers(min_value=0, max_value=5).map(float)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), tie_times),
        st.tuples(st.just("at"), tie_times),
        st.tuples(st.just("bulk"), st.lists(tie_times, max_size=6)),
    ),
    max_size=30,
)


def _apply(scheduler_cls, ops, end_time=10.0):
    """Run one interleaving on a fresh scheduler; return the fired event stream."""
    engine = scheduler_cls()
    log = []
    tags = iter(range(10**9))

    def fire(tag):
        log.append((engine.now, tag))

    for kind, arg in ops:
        if kind == "schedule":
            engine.schedule(arg, fire, next(tags))
        elif kind == "at":
            engine.schedule_at(arg, fire, next(tags))
        else:
            engine.schedule_bulk(arg, fire, [next(tags) for _ in arg])
    engine.run_until(end_time)
    return log, engine


@given(operations)
def test_interleavings_fire_in_identical_order(ops):
    reference, _ = _apply(ReferenceScheduler, ops)
    engine, _ = _apply(Engine, ops)
    assert reference == engine


@given(operations)
def test_events_processed_and_pending_agree(ops):
    _, reference = _apply(ReferenceScheduler, ops, end_time=3.0)
    _, engine = _apply(Engine, ops, end_time=3.0)
    assert reference.events_processed == engine.events_processed
    assert reference.pending() == engine.pending()


@given(st.lists(st.tuples(tie_times, st.integers(0, 2)), min_size=1, max_size=8))
def test_mid_drain_bulk_cascades_match(seeds):
    """Callbacks that bulk-schedule children mid-drain interleave identically."""
    logs = []
    for scheduler_cls in SCHEDULERS:
        engine = scheduler_cls()
        log = []
        tags = iter(range(10**9))

        def fire(payload, engine=engine, log=log, tags=tags):
            tag, depth = payload
            log.append((engine.now, tag, depth))
            if depth > 0:
                engine.schedule_bulk(
                    [engine.now, engine.now + 1.0],
                    fire,
                    [(next(tags), depth - 1), (next(tags), depth - 1)],
                )

        for time, depth in seeds:
            engine.schedule_at(time, fire, (next(tags), depth))
        engine.run_until(20.0)
        logs.append(log)
    assert logs[0] == logs[1]


class TestEngineUnits:
    def test_pending_counts_bulk_remainder(self):
        engine = Engine()
        engine.schedule_bulk([1.0, 2.0, 3.0], lambda _: None, ["a", "b", "c"])
        engine.schedule(1.5, lambda: None)
        assert engine.pending() == 4
        engine.run_until(1.6)
        assert engine.pending() == 2

    def test_bulk_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Engine().schedule_bulk([1.0], lambda _: None, ["a", "b"])

    def test_bulk_past_time_rejected(self):
        engine = Engine()
        engine.run_until(10.0)
        with pytest.raises(ValueError):
            engine.schedule_bulk([5.0], lambda _: None, ["a"])

    def test_empty_bulk_is_a_no_op(self):
        engine = Engine()
        engine.schedule_bulk([], lambda _: None, [])
        assert engine.pending() == 0

    def test_drained_bulk_payloads_are_released(self):
        class Payload:
            pass

        engine = Engine()
        due, later = Payload(), Payload()
        refs = [weakref.ref(due), weakref.ref(later)]
        engine.schedule_bulk([1.0, 2.0], lambda _: None, [due, later])
        del due, later
        engine.run_until(1.5)
        assert refs[0]() is None  # fired: must not stay pinned for the rest of the run
        assert refs[1]() is not None  # not yet due: still queued

    def test_int_times_leave_now_a_float(self):
        engine = Engine()
        seen = []
        engine.schedule_at(1, lambda: seen.append(engine.now))
        engine.schedule_at(3, lambda: seen.append(engine.now))
        engine.run_until(4.0)
        assert seen == [1.0, 3.0]
        assert all(type(now) is float for now in seen)

    def test_int_bulk_times_leave_now_a_float(self):
        engine = Engine()
        seen = []
        engine.schedule_bulk([1, 2], lambda _: seen.append(engine.now), ["a", "b"])
        engine.run_until(3.0)
        assert seen == [1.0, 2.0]
        assert all(type(now) is float for now in seen)

    def test_events_processed_counts_all_representations(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        engine.schedule_bulk([3.0], lambda _: None, ["x"])
        engine.run_until(5.0)
        assert engine.events_processed == 3


# -- an engine with an end against one without -------------------------------------

#: the end of the ended engine; programs schedule around and past it
END = 6.0

#: one program step: (operation, time or delay, pick)
program_steps = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), tie_times, st.just(0)),
        st.tuples(st.just("at"), tie_times, st.just(0)),
        st.tuples(st.just("bulk"), st.lists(tie_times, max_size=4), st.just(0)),
        st.tuples(st.just("periodic"), st.sampled_from([0.5, 1.0, 2.5, 4.0]), st.integers(0, 3)),
        st.tuples(st.just("run"), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]), st.just(0)),
        st.tuples(st.just("clear"), st.just(0.0), st.just(0)),
    ),
    max_size=40,
)


def _program(steps, end=None):
    """Run a program; return the fired ``(time, callback, args)`` stream and
    ``pending()`` after every step."""
    engine = Engine() if end is None else Engine(end=end)
    fired, pendings = [], []
    tags = itertools.count()
    periodic = itertools.count()

    def fire(*args):
        fired.append((engine.now, "fire", args))
        if args[0] % 3 == 0:  # a cascade: some events schedule a child
            engine.schedule(1.5, fire, next(tags))

    def tick(now, name):
        fired.append((engine.now, "tick", (name, now)))

    for kind, arg, pick in steps:
        if kind == "schedule":
            engine.schedule(arg, fire, next(tags))
        elif kind == "at":
            engine.schedule_at(engine.now + arg, fire, next(tags))
        elif kind == "bulk":
            engine.schedule_bulk([engine.now + t for t in arg], fire, [next(tags) for _ in arg])
        elif kind == "periodic":
            PeriodicTask(
                engine,
                arg,
                lambda now, name=next(periodic): tick(now, name),
                start_delay=None if pick == 0 else float(pick),
            )
        elif kind == "run":
            engine.run_until(min(engine.now + arg, END))
        elif kind == "clear":
            engine.clear()
        pendings.append(engine.pending())
    engine.run_until(END)
    pendings.append(engine.pending())
    return fired, pendings


@settings(max_examples=300)
@given(program_steps)
def test_an_engine_with_an_end_fires_and_counts_as_one_without(steps):
    assert _program(steps, end=END) == _program(steps)


class TestTheEnd:
    def test_never_due_events_are_counted_not_stored(self):
        engine = Engine(end=10.0)
        engine.schedule(11.0, print, "never")
        engine.schedule_at(10.5, print)
        engine.schedule(20.0, print)
        engine.schedule_bulk([5.0, 12.0, 10.0], print, ["a", "b", "c"])
        assert [entry[0] for entry in sorted(engine._heap)] == [5.0, 10.0]
        assert engine.pending() == 6

    def test_never_due_events_consume_their_sequence_number(self):
        ended, unended = Engine(end=1.0), Engine()
        for engine in (ended, unended):
            engine.schedule(2.0, print)
            engine.schedule_bulk([3.0, 0.5], print, ["a", "b"])
            engine.schedule_at(5.0, print)
            engine.schedule(1.0, print)
        assert [entry[:2] for entry in sorted(ended._heap)] == [
            entry[:2] for entry in sorted(unended._heap) if entry[0] <= 1.0
        ] == [(0.5, 2), (1.0, 4)]

    def test_an_event_exactly_at_the_end_is_queued_and_fires(self):
        engine = Engine(end=10.0)
        fired = []
        engine.schedule(10.0, fired.append, "schedule")
        engine.schedule_at(10.0, fired.append, "at")
        engine.schedule_bulk([10.0], fired.append, ["bulk"])
        assert len(engine._heap) == 3 and engine.pending() == 3
        engine.run_until(10.0)
        assert fired == ["schedule", "at", "bulk"] and engine.pending() == 0

    def test_run_until_past_the_end_is_rejected_before_any_event_runs(self):
        engine = Engine(end=10.0)
        fired = []
        engine.schedule(1.0, fired.append, "due")
        with pytest.raises(ValueError, match=r"10\.5.*10\.0"):
            engine.run_until(10.5)
        assert fired == [] and engine.now == 0.0 and engine.events_processed == 0
        engine.run_until(10.0)
        assert fired == ["due"]

    def test_an_end_before_the_start_is_rejected(self):
        with pytest.raises(ValueError):
            Engine(end=-1.0)
        with pytest.raises(ValueError):
            Engine(end=float("nan"))

    def test_the_default_end_is_infinity(self):
        engine = Engine()
        engine.schedule(1e12, print)
        engine.run_until(1e13)
        assert engine.events_processed == 1
