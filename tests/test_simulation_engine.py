"""Tests for the discrete-event engine."""

import pytest

from repro.simulation.engine import Engine, PeriodicTask


class TestEngine:
    def test_events_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(5.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(9.0, lambda: order.append("c"))
        engine.run_until(10.0)
        assert order == ["a", "b", "c"]
        assert engine.now == 10.0

    def test_same_time_events_run_in_schedule_order(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, lambda: order.append(1))
        engine.schedule(1.0, lambda: order.append(2))
        engine.run_until(2.0)
        assert order == [1, 2]

    def test_run_until_does_not_run_future_events(self):
        engine = Engine()
        fired = []
        engine.schedule(10.0, lambda: fired.append(True))
        engine.run_until(5.0)
        assert fired == []
        engine.run_until(15.0)
        assert fired == [True]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().schedule(-1.0, lambda: None)

    def test_scheduling_in_the_past_rejected(self):
        engine = Engine()
        engine.run_until(100.0)
        with pytest.raises(ValueError):
            engine.schedule_at(50.0, lambda: None)

    def test_run_until_backwards_rejected(self):
        engine = Engine()
        engine.run_until(10.0)
        with pytest.raises(ValueError):
            engine.run_until(5.0)

    def test_run_until_nan_rejected(self):
        # No event time compares greater than NaN: the drain would never stop.
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            engine.run_until(float("nan"))
        assert engine.events_processed == 0

    def test_clear_drops_the_queue(self):
        engine = Engine(end=10.0)
        fired = []
        engine.schedule(1.0, fired.append, "schedule")
        engine.schedule_at(2.0, fired.append, "at")
        engine.schedule(20.0, fired.append, "never due")
        engine.clear()
        assert engine.pending() == 0 and engine._heap == []
        engine.schedule(3.0, fired.append, "after")
        engine.run_until(10.0)
        assert fired == ["after"] and engine.pending() == 0

    def test_clear_from_a_callback_ends_the_drain(self):
        # clear empties the heap the drain loop is reading, so nothing queued
        # before it fires after it.
        engine = Engine()
        fired = []
        engine.schedule(1.0, engine.clear)
        engine.schedule(1.0, fired.append, "same time")
        engine.schedule(2.0, fired.append, "later")
        engine.run_until(5.0)
        assert fired == [] and engine.pending() == 0 and engine.now == 5.0

    def test_run_drains_everything(self):
        engine = Engine()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 4:
                engine.schedule(1e6, chain, n + 1)

        engine.schedule(1.0, chain, 0)
        engine.schedule_bulk([1e9, 1e12], seen.append, ["a", "b"])
        engine.run_until(float("inf"))
        assert seen == [0, 1, 2, 3, 4, "a", "b"]
        assert engine.pending() == 0 and engine.events_processed == 7

    def test_schedule_and_schedule_at_return_nothing(self):
        engine = Engine()
        assert engine.schedule(1.0, lambda: None) is None
        assert engine.schedule_at(2.0, lambda: None) is None

    def test_callbacks_receive_their_args(self):
        engine = Engine()
        seen = []
        engine.schedule(1.0, lambda *args: seen.append(args), "a", 1)
        engine.schedule_at(2.0, lambda *args: seen.append(args))
        engine.schedule_at(3.0, lambda *args: seen.append(args), ("t",))
        engine.schedule_bulk([4.0], lambda *args: seen.append(args), [("p", 2)])
        engine.run_until(5.0)
        assert seen == [("a", 1), (), (("t",),), (("p", 2),)]

    def test_every_heap_entry_has_one_shape(self):
        engine = Engine()
        engine.schedule(1.0, print, "x")
        engine.schedule_at(2, print)
        engine.schedule_bulk([3, 4.0], print, ["a", "b"])
        PeriodicTask(engine, 5.0, print)
        entries = list(engine._heap)
        assert len(entries) == 5
        for time, seq, callback, args in entries:
            assert type(time) is float and type(seq) is int
            assert callable(callback) and type(args) is tuple
        assert sorted(seq for _, seq, _, _ in entries) == [0, 1, 2, 3, 4]

    def test_callbacks_can_schedule_more_events(self):
        engine = Engine()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                engine.schedule(1.0, chain, n + 1)

        engine.schedule(0.0, chain, 0)
        engine.run_until(10.0)
        assert seen == [0, 1, 2, 3]

    def test_events_processed_counter(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run_until(2.0)
        assert engine.events_processed == 5


class TestPeriodicTask:
    def test_fires_at_interval_with_now_argument(self):
        engine = Engine()
        times = []
        PeriodicTask(engine, 10.0, times.append)
        engine.run_until(35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_start_delay(self):
        engine = Engine()
        times = []
        PeriodicTask(engine, 10.0, times.append, start_delay=2.0)
        engine.run_until(25.0)
        assert times == [2.0, 12.0, 22.0]

    def test_next_fire_is_queued_after_what_the_callback_schedules(self):
        # A fire calls back first and reschedules itself second, so an event
        # its callback puts at the next fire's time runs before that fire.
        engine = Engine()
        order = []

        def tick(now):
            order.append(("tick", now))
            engine.schedule(1.0, lambda: order.append(("child", engine.now)))

        PeriodicTask(engine, 1.0, tick)
        engine.run_until(2.5)
        assert order == [("tick", 1.0), ("child", 2.0), ("tick", 2.0)]

    def test_zero_interval_rejected(self):
        with pytest.raises(ValueError):
            PeriodicTask(Engine(), 0.0, lambda now: None)

    def test_zero_start_delay_fires_now(self):
        engine = Engine()
        engine.run_until(5.0)
        times = []
        PeriodicTask(engine, 10.0, times.append, start_delay=0.0)
        engine.run_until(26.0)
        assert times == [5.0, 15.0, 25.0]

    def test_negative_start_delay_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            PeriodicTask(engine, 10.0, lambda now: None, start_delay=-1.0)
        assert engine.pending() == 0

    def test_a_fire_past_the_end_is_counted_not_queued(self):
        engine = Engine(end=10.0)
        times = []
        PeriodicTask(engine, 4.0, times.append)
        engine.run_until(10.0)
        assert times == [4.0, 8.0]
        assert engine._heap == [] and engine.pending() == 1


NON_FINITE = [float("nan"), float("inf")]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf"])
class TestNonFiniteRejected:
    """A NaN key compares false against every other: accepted, it fired before
    a t = 5 event with ``now == nan`` inside its callback."""

    def test_schedule_at(self, value):
        engine = Engine()
        with pytest.raises(ValueError, match=str(value)):
            engine.schedule_at(value, lambda: None)
        assert engine.pending() == 0

    def test_schedule(self, value):
        engine = Engine()
        with pytest.raises(ValueError, match=str(value)):
            engine.schedule(value, lambda: None)
        assert engine.pending() == 0

    def test_schedule_bulk(self, value):
        engine = Engine()
        with pytest.raises(ValueError, match=str(value)):
            engine.schedule_bulk([1.0, value], lambda payload: None, ["a", "b"])
        assert engine.pending() == 0

    def test_periodic_task_interval(self, value):
        engine = Engine()
        with pytest.raises(ValueError, match=str(value)):
            PeriodicTask(engine, value, lambda now: None)
        assert engine.pending() == 0


class TestPendingCounter:
    def test_pending_is_consistent_after_mixed_operations(self):
        engine = Engine(end=12.0)
        for i in range(10):
            engine.schedule(float(i + 1), lambda: None)
        engine.schedule_at(11.0, lambda: None)
        engine.schedule_bulk([2.5, 13.0], lambda _: None, ["a", "b"])
        assert engine.pending() == 13  # the never-due bulk event included
        engine.run_until(3.0)
        assert engine.pending() == 13 - 4  # 1, 2, 2.5 and 3 ran
        engine.run_until(12.0)
        assert engine.pending() == 1  # only the never-due one is left

    def test_a_never_due_event_scheduled_mid_drain_stays_pending(self):
        engine = Engine(end=5.0)
        engine.schedule(1.0, lambda: engine.schedule(10.0, print))
        engine.schedule(2.0, lambda: engine.schedule(1.0, print))
        assert engine.pending() == 2
        engine.run_until(5.0)
        assert engine.events_processed == 3
        assert engine._heap == [] and engine.pending() == 1


class TestRunUntilBoundary:
    """Exactly-once semantics for events sitting exactly at ``end_time``.

    The engine contract (see the Engine docstring) promises that an event at
    precisely the boundary of a ``run_until`` call fires in the first call
    that reaches the boundary and never again in a later call.  These cases
    pin that behaviour before anyone leans on it.
    """

    def test_event_at_boundary_fires_in_first_call_only(self):
        engine = Engine()
        fired = []
        engine.schedule_at(10.0, lambda: fired.append("x"))
        engine.run_until(10.0)
        assert fired == ["x"]
        engine.run_until(20.0)
        assert fired == ["x"]

    def test_event_scheduled_between_same_boundary_calls_fires_once(self):
        # After run_until(10) leaves now == 10, scheduling at exactly 10 and
        # calling run_until(10) again must fire the new event exactly once.
        engine = Engine()
        fired = []
        engine.run_until(10.0)
        engine.schedule_at(10.0, lambda: fired.append("y"))
        engine.run_until(10.0)
        assert fired == ["y"]
        engine.run_until(10.0)
        assert fired == ["y"]

    def test_nested_same_time_scheduling_drains_within_one_call(self):
        engine = Engine()
        fired = []

        def outer():
            fired.append("outer")
            engine.schedule_at(engine.now, lambda: fired.append("inner"))

        engine.schedule_at(5.0, outer)
        engine.run_until(5.0)
        assert fired == ["outer", "inner"]

    def test_windowed_advance_partitions_events_exactly(self):
        engine = Engine()
        fired = []
        for t in (1.0, 2.0, 2.0, 3.0):
            engine.schedule_at(t, lambda t=t: fired.append(t))
        engine.run_until(2.0)
        assert fired == [1.0, 2.0, 2.0]
        engine.run_until(3.0)
        assert fired == [1.0, 2.0, 2.0, 3.0]
        assert engine.now == 3.0

    def test_bulk_event_at_boundary_fires_exactly_once(self):
        engine = Engine()
        fired = []
        engine.schedule_bulk([10.0, 10.0], fired.append, ["a", "b"])
        engine.run_until(10.0)
        assert fired == ["a", "b"]
        engine.run_until(10.0)
        assert fired == ["a", "b"]

    def test_periodic_task_ticks_once_per_boundary(self):
        engine = Engine()
        ticks = []
        PeriodicTask(engine, 10.0, ticks.append)
        engine.run_until(10.0)
        assert ticks == [10.0]
        engine.run_until(20.0)
        assert ticks == [10.0, 20.0]
