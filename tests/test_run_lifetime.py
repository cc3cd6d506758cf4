"""A finished run frees itself: no reference cycle survives ``Scenario.run()``.

``Scenario.run()`` releases the run whether it returns or raises, so once the
caller drops the Scenario and its result, reference counting alone frees the
fabric.  Every test here keeps the cyclic collector disabled: whatever it
would have had to free is still in ``gc.get_objects()`` afterwards.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.scenarios.registry import build_scenario_config, scenario_names
from repro.simulation.behaviors import MetadataBehaviors
from repro.simulation.engine import Engine, PeriodicTask
from repro.simulation.network import SimPeer, SimulatedNetwork
from repro.simulation.scenario import Scenario
from repro.sweep import plan_cell, summarize_cell

PEERS = 80
DAYS = 0.02
SEED = 7
RUN_TYPES = (SimPeer, SimulatedNetwork, Engine)


def live_run_objects():
    """How many objects of a run's core types are still alive, by type."""
    counts = Counter(map(type, gc.get_objects()))
    return {kind.__name__: counts[kind] for kind in RUN_TYPES if counts[kind]}


@pytest.fixture(scope="module")
def baseline():
    """Run objects that earlier tests keep alive, if any, once what they left
    for the collector is collected; the collector stays off for the whole
    module, so the baseline holds."""
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    yield live_run_objects()
    if was_enabled:
        gc.enable()


@pytest.mark.parametrize("name", scenario_names())
def test_a_finished_run_is_freed_on_drop(baseline, name):
    scenario = Scenario(build_scenario_config(name, n_peers=PEERS, duration_days=DAYS, seed=SEED))
    result = scenario.run()
    assert result.events_processed > 0
    del scenario, result
    assert live_run_objects() == baseline


@pytest.mark.parametrize("name", scenario_names())
def test_a_telemetry_cell_is_freed_on_return(baseline, name):
    summary = summarize_cell(
        plan_cell(name, PEERS, DAYS, SEED, metrics_window=300.0, trace_sample=1.0)
    )
    assert summary["metrics"] and summary["tracing"]
    assert live_run_objects() == baseline


@pytest.mark.parametrize("name", scenario_names())
def test_a_telemetry_cell_leaves_no_cyclic_garbage(baseline, name):
    # Scenario.run keeps the collector parked for the whole run, which is
    # free only while a run makes no reference cycle: every cycle would wait
    # for a later pass.  Tracing and windowed metrics included, it makes none.
    gc.collect()
    summary = summarize_cell(
        plan_cell(name, PEERS, DAYS, SEED, metrics_window=300.0, trace_sample=1.0)
    )
    assert summary["metrics"] and summary["tracing"]
    assert gc.collect() == 0


def test_a_periodic_task_due_past_the_end_is_freed(baseline, monkeypatch):
    # p2 at 0.01 d: the 300 s outbound tick fires at 300 s and 600 s, and its
    # next fire falls past the end.  The engine only counts that fire and
    # stores nothing for it, so once the last fire returns the task is
    # referenced by nothing: no queue entry, and no cycle left to break.
    config = build_scenario_config("p2", n_peers=PEERS, duration_days=0.01, seed=SEED)
    interval = config.network.outbound_dial_interval
    assert 2 * interval < config.duration < 3 * interval
    tasks = []
    real_init = PeriodicTask.__init__

    def tracked_init(task, *args, **kwargs):
        real_init(task, *args, **kwargs)
        tasks.append(weakref.ref(task))

    monkeypatch.setattr(PeriodicTask, "__init__", tracked_init)
    scenario = Scenario(config)
    result = scenario.run()
    assert result.events_processed > 0 and tasks
    del scenario, result
    assert [task for task in tasks if task() is not None] == []
    assert live_run_objects() == baseline


class TestFailingRuns:
    def _scenario(self):
        return Scenario(build_scenario_config("p2", n_peers=PEERS, duration_days=DAYS, seed=SEED))

    def test_a_run_failing_in_the_drain_is_freed(self, baseline):
        scenario = self._scenario()

        def failing_behaviour():
            raise RuntimeError("behaviour failed")

        scenario.engine.schedule(60.0, failing_behaviour)
        with pytest.raises(RuntimeError, match="behaviour failed"):
            scenario.run()
        assert scenario.engine.pending() == 0
        del scenario
        assert live_run_objects() == baseline

    def test_a_run_failing_at_start_is_freed(self, baseline, monkeypatch):
        # Fails after network.start() queued the fabric's periodic tasks.
        def failing_schedule(behaviors, duration):
            raise RuntimeError("schedule failed")

        monkeypatch.setattr(MetadataBehaviors, "schedule_all", failing_schedule)
        scenario = self._scenario()
        with pytest.raises(RuntimeError, match="schedule failed"):
            scenario.run()
        del scenario
        assert live_run_objects() == baseline
