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

    def test_cancelled_events_do_not_fire(self):
        engine = Engine()
        fired = []
        event = engine.schedule(1.0, lambda: fired.append(True))
        event.cancel()
        engine.run_until(2.0)
        assert fired == []
        assert engine.pending() == 0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().schedule(-1.0, lambda: None)

    def test_scheduling_in_the_past_rejected(self):
        engine = Engine(start_time=100.0)
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
        engine.schedule_drop(1.0, lambda: None)
        with pytest.raises(ValueError):
            engine.run_until(float("nan"))
        assert engine.events_processed == 0

    def test_clear_drops_the_queue_and_cancels_handles(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(1.0, fired.append, "handle")
        engine.schedule_drop(2.0, fired.append, "drop")
        engine.clear()
        assert engine.pending() == 0
        assert handle.cancelled and handle.callback is None and handle.args is None
        engine.schedule(3.0, fired.append, "after")
        engine.run()
        assert fired == ["after"] and engine.pending() == 0

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

    def test_run_drains_everything(self):
        engine = Engine()
        seen = []
        engine.schedule(100.0, lambda: seen.append(1))
        engine.run()
        assert seen == [1]
        assert engine.now == 100.0


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

    def test_stop_halts_future_firings(self):
        engine = Engine()
        times = []
        task = PeriodicTask(engine, 5.0, times.append)
        engine.run_until(12.0)
        task.stop()
        engine.run_until(40.0)
        assert times == [5.0, 10.0]

    def test_zero_interval_rejected(self):
        with pytest.raises(ValueError):
            PeriodicTask(Engine(), 0.0, lambda now: None)


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

    def test_schedule_drop(self, value):
        engine = Engine()
        with pytest.raises(ValueError, match=str(value)):
            engine.schedule_drop(value, lambda: None)
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
        engine = Engine()
        events = [engine.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert engine.pending() == 10
        events[0].cancel()
        events[5].cancel()
        events[5].cancel()  # double-cancel must not double-count
        assert engine.pending() == 8
        engine.run_until(3.0)
        assert engine.pending() == 10 - 3 - 1  # events 2,3 ran; 1 was cancelled
        engine.run()
        assert engine.pending() == 0

    def test_cancel_after_firing_does_not_corrupt_pending(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        later = engine.schedule(5.0, lambda: None)
        engine.run_until(2.0)
        event.cancel()  # already fired: must be a no-op for the counter
        assert engine.pending() == 1
        later.cancel()
        assert engine.pending() == 0


# One engine class; the single-value parametrisation keeps these cases' ids
# (``...[Engine]``) stable for tooling that tracks tests by id.
@pytest.mark.parametrize("engine_cls", [Engine])
class TestRunUntilBoundary:
    """Exactly-once semantics for events sitting exactly at ``end_time``.

    The engine contract (see the Engine docstring) promises that an event at
    precisely the boundary of a ``run_until`` call fires in the first call
    that reaches the boundary and never again in a later call.  These cases
    pin that behaviour before anyone leans on it.
    """

    def test_event_at_boundary_fires_in_first_call_only(self, engine_cls):
        engine = engine_cls()
        fired = []
        engine.schedule_at(10.0, lambda: fired.append("x"))
        engine.run_until(10.0)
        assert fired == ["x"]
        engine.run_until(20.0)
        assert fired == ["x"]

    def test_event_scheduled_between_same_boundary_calls_fires_once(self, engine_cls):
        # After run_until(10) leaves now == 10, scheduling at exactly 10 and
        # calling run_until(10) again must fire the new event exactly once.
        engine = engine_cls()
        fired = []
        engine.run_until(10.0)
        engine.schedule_at(10.0, lambda: fired.append("y"))
        engine.run_until(10.0)
        assert fired == ["y"]
        engine.run_until(10.0)
        assert fired == ["y"]

    def test_nested_same_time_scheduling_drains_within_one_call(self, engine_cls):
        engine = engine_cls()
        fired = []

        def outer():
            fired.append("outer")
            engine.schedule_at(engine.now, lambda: fired.append("inner"))

        engine.schedule_at(5.0, outer)
        engine.run_until(5.0)
        assert fired == ["outer", "inner"]

    def test_windowed_advance_partitions_events_exactly(self, engine_cls):
        engine = engine_cls()
        fired = []
        for t in (1.0, 2.0, 2.0, 3.0):
            engine.schedule_at(t, lambda t=t: fired.append(t))
        engine.run_until(2.0)
        assert fired == [1.0, 2.0, 2.0]
        engine.run_until(3.0)
        assert fired == [1.0, 2.0, 2.0, 3.0]
        assert engine.now == 3.0

    def test_bulk_event_at_boundary_fires_exactly_once(self, engine_cls):
        engine = engine_cls()
        fired = []
        engine.schedule_bulk([10.0, 10.0], fired.append, ["a", "b"])
        engine.run_until(10.0)
        assert fired == ["a", "b"]
        engine.run_until(10.0)
        assert fired == ["a", "b"]

    def test_periodic_task_ticks_once_per_boundary(self, engine_cls):
        engine = engine_cls()
        ticks = []
        PeriodicTask(engine, 10.0, ticks.append)
        engine.run_until(10.0)
        assert ticks == [10.0]
        engine.run_until(20.0)
        assert ticks == [10.0, 20.0]
