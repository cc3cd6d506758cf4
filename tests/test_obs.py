"""Streaming metrics (repro.obs): determinism and progress tracing.

The load-bearing guarantees pinned here:

* any interleaving of the same observations renders byte-identical
  metrics.jsonl (hypothesis property);
* enabling metrics never changes a run's datasets with metrics *disabled*
  (``obs=None`` draws nothing), and metrics-enabled reruns are byte-identical;
* the engine progress hooks fire cheaply and the tracer stays out of
  artifacts (stderr only, gated by REPRO_PROGRESS).
"""

import dataclasses
import io
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.config import ObsConfig
from repro.obs.hub import (
    DEFAULT_TIME_BUCKETS,
    METRICS_SCHEMA,
    RING_CAPACITY,
    MetricsHub,
    render_line,
)
from repro.obs.progress import PROGRESS_ENV, EngineTracer, progress_enabled
from repro.scenarios.registry import build_scenario_config
from repro.simulation.engine import Engine
from repro.simulation.scenario import Scenario, run_scenario

from fingerprint import result_fingerprint

HOUR = 3_600.0


def metrics_jsonl(summary) -> str:
    """The in-memory windows of a metrics summary rendered as metrics.jsonl."""
    return "".join(render_line(payload) + "\n" for payload in summary.windows)


# -- hub primitives -----------------------------------------------------------------


class TestHubBasics:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ObsConfig(window=0.0)
        assert ObsConfig().window == 300.0

    def test_counter_increments_must_be_ints(self):
        hub = MetricsHub(window=10.0)
        with pytest.raises(TypeError):
            hub.inc("x", 0.0, value=1.5)

    def test_histogram_bounds_must_ascend(self):
        hub = MetricsHub(window=10.0)
        with pytest.raises(ValueError):
            hub.register_histogram("h", bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            hub.register_histogram("h", bounds=())
        hub.register_histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            hub.register_histogram("h", bounds=(1.0, 3.0))

    def test_horizon_fills_empty_windows_without_gaps(self):
        hub = MetricsHub(window=10.0)
        hub.set_horizon(45.0)
        hub.inc("a", 2.0)
        hub.inc("a", 41.0)
        summary = hub.finalize()
        assert summary.windows_closed == 5
        assert [w["index"] for w in summary.windows] == [0, 1, 2, 3, 4]
        assert summary.windows[1]["counters"] == {}
        assert summary.counters == {"a": 2}

    def test_observation_at_horizon_boundary_folds_into_final_window(self):
        hub = MetricsHub(window=10.0)
        hub.set_horizon(30.0)
        hub.inc("edge", 30.0)  # t == duration: window 3 does not exist
        summary = hub.finalize()
        assert summary.windows_closed == 3
        assert summary.windows[-1]["counters"] == {"edge": 1}

    def test_closed_windows_never_reopen(self):
        hub = MetricsHub(window=10.0)
        hub.set_horizon(40.0)
        hub.advance(25.0)  # closes windows 0 and 1
        hub.inc("late", 3.0)  # would land in window 0 — folds into frontier
        summary = hub.finalize()
        assert summary.windows[0]["counters"] == {}
        assert summary.windows[2]["counters"] == {"late": 1}

    def test_final_window_closes_only_at_finalize(self):
        hub = MetricsHub(window=10.0)
        hub.set_horizon(20.0)
        hub.advance(1e9)
        assert hub.windows_closed == 1  # window 1 is the final horizon window
        summary = hub.finalize()
        assert summary.windows_closed == 2

    def test_finalize_twice_raises(self):
        hub = MetricsHub(window=10.0)
        hub.set_horizon(10.0)
        hub.finalize()
        with pytest.raises(RuntimeError):
            hub.finalize()

    def test_ring_buffer_evicts_and_counts_drops(self):
        windows = RING_CAPACITY + 7
        hub = MetricsHub(window=1.0)
        hub.set_horizon(float(windows))
        for i in range(windows):
            hub.inc("n", i + 0.5)
        summary = hub.finalize()
        assert summary.windows_closed == windows
        assert [w["index"] for w in summary.windows] == list(range(7, windows))
        assert summary.windows_dropped == 7
        assert summary.counters == {"n": windows}  # totals survive eviction

    def test_jsonl_lines_match_summary_rendering(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        hub = MetricsHub(window=10.0, jsonl_path=str(path))
        hub.set_horizon(30.0)
        hub.inc("a", 5.0)
        hub.gauge("g", 15.0, 2.5)
        hub.observe("h", 25.0, 0.3)
        summary = hub.finalize()
        assert path.read_text() == metrics_jsonl(summary)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["schema"] == METRICS_SCHEMA
        assert first["start"] == 0.0 and first["end"] == 10.0

    def test_abandoned_hub_leaves_only_the_tmp_export(self, tmp_path):
        # A killed cell must not leave a metrics.jsonl that parses as a
        # shorter, valid file: windows stream to <path>.tmp until finalize.
        path = tmp_path / "cell__metrics.jsonl"
        hub = MetricsHub(window=10.0, jsonl_path=str(path))
        hub.set_horizon(30.0)
        hub.inc("a", 5.0)
        hub.advance(25.0)
        assert hub.windows_closed == 2
        assert os.listdir(tmp_path) == ["cell__metrics.jsonl.tmp"]
        hub.finalize()
        assert os.listdir(tmp_path) == ["cell__metrics.jsonl"]

    def test_subscribers_see_each_window_at_close(self):
        seen = []
        hub = MetricsHub(window=10.0)
        hub.set_horizon(30.0)
        hub.subscribe(lambda payload: seen.append(payload["index"]))
        hub.inc("a", 5.0)
        hub.advance(25.0)
        assert seen == [0, 1]
        hub.finalize()
        assert seen == [0, 1, 2]


# -- order-independence (the hypothesis property) -----------------------------------

_observations = st.lists(
    st.tuples(
        st.sampled_from(["inc", "gauge", "observe"]),
        st.sampled_from(["alpha", "beta"]),
        st.floats(min_value=0.0, max_value=99.0, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ),
    max_size=60,
)


def _apply(hub, kind, name, now, value):
    if kind == "inc":
        hub.inc(name, now, value=int(value))
    elif kind == "gauge":
        hub.gauge(name, now, value)
    else:
        hub.observe(name, now, value)


def _run_hub(observations):
    hub = MetricsHub(window=10.0)
    hub.set_horizon(100.0)
    for kind, name, now, value in observations:
        _apply(hub, kind, name, now, value)
    return hub.finalize()


class TestOrderIndependence:
    @settings(max_examples=60)
    @given(observations=_observations, seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_any_interleaving_renders_identical_jsonl(self, observations, seed):
        """Shuffled observation order never changes the rendered bytes.

        Within a window: counters add ints exactly, float sums go through
        math.fsum (exactly rounded, hence commutative in effect), min/max and
        bucket counts are order-free.  Across windows: placement depends only
        on the timestamp, never on arrival order.
        """
        shuffled = list(observations)
        random.Random(seed).shuffle(shuffled)
        baseline = _run_hub(observations)
        reordered = _run_hub(shuffled)
        assert metrics_jsonl(reordered) == metrics_jsonl(baseline)
        assert reordered.counters == baseline.counters


# -- scenario integration -----------------------------------------------------------


def _obs_config(name="p1", n_peers=40, seed=7, window=2 * HOUR, **obs_kwargs):
    config = build_scenario_config(name, n_peers=n_peers, duration_days=0.02, seed=seed)
    obs = ObsConfig(window=window, **obs_kwargs)
    return dataclasses.replace(
        config, population=dataclasses.replace(config.population, obs=obs)
    )


class TestScenarioMetrics:
    def test_disabled_by_default_and_enabled_runs_are_reproducible(self):
        config = build_scenario_config("p1", n_peers=40, duration_days=0.02, seed=7)
        assert run_scenario(config).metrics is None

        first = run_scenario(_obs_config())
        second = run_scenario(_obs_config())
        assert first.metrics is not None
        assert first.metrics == second.metrics
        assert metrics_jsonl(first.metrics) == metrics_jsonl(second.metrics)
        assert first.metrics.observations > 0
        assert first.metrics.counters.get("fabric.connect", 0) > 0


# -- engine progress hooks ----------------------------------------------------------


def _drive(engine, events=50):
    for i in range(events):
        engine.schedule(float(i + 1), lambda: None)
    engine.run_until(float(events + 1))


class TestProgressHooks:
    def test_callback_fires_with_monotonic_counts(self):
        engine = Engine()
        calls = []
        engine.set_progress(
            lambda now, events, pending: calls.append((now, events, pending)), every=10
        )
        _drive(engine)
        assert calls, "progress callback never fired"
        counts = [events for _, events, _ in calls]
        assert counts == sorted(counts)
        assert all(pending >= 0 for _, _, pending in calls)

    def test_every_one_reports_after_each_event(self):
        # The hook runs after the callback, so what the callback schedules is
        # already pending.
        engine = Engine()
        calls = []
        engine.set_progress(lambda *call: calls.append(call), every=1)
        engine.schedule(1.0, lambda: engine.schedule(5.0, print))
        engine.schedule(2.0, print)
        engine.run_until(10.0)
        assert calls == [(1.0, 1, 2), (2.0, 2, 1), (6.0, 3, 0)]

    def test_the_stride_counts_from_the_events_already_processed(self):
        engine = Engine()
        _drive(engine, events=5)
        calls = []
        engine.set_progress(lambda now, events, pending: calls.append(events), every=3)
        for i in range(7):
            engine.schedule(float(i + 1), print)
        engine.run_until(engine.now + 8.0)
        assert calls == [8, 11]

    def test_reported_pending_includes_never_due_events(self):
        engine = Engine(end=10.0)
        calls = []
        engine.set_progress(lambda now, events, pending: calls.append(pending), every=1)
        engine.schedule_bulk([1.0, 2.0, 20.0, 30.0], lambda _: None, "abcd")
        engine.run_until(10.0)
        assert calls == [3, 2]

    def test_set_progress_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            Engine().set_progress(lambda *a: None, every=0)

    def test_results_identical_with_and_without_progress(self):
        # check_every=1: the hook runs after every drained event of the run.
        config = build_scenario_config("p1", n_peers=40, duration_days=0.02, seed=7)
        baseline = run_scenario(config)
        traced_scenario = Scenario(config)
        stream = io.StringIO()
        tracer = EngineTracer("test", stream=stream, sim_interval=HOUR / 4, check_every=1)
        tracer.install(traced_scenario.engine)
        traced = traced_scenario.run()
        assert stream.getvalue().count("\n") == 1  # 0.02 d = 0.48 h: one quarter-hour line
        assert traced.events_processed == baseline.events_processed > 0
        assert result_fingerprint(traced) == result_fingerprint(baseline)


class TestTracer:
    def test_progress_enabled_parses_env(self, monkeypatch):
        monkeypatch.delenv(PROGRESS_ENV, raising=False)
        assert progress_enabled() is False
        for value in ("1", "true", "YES", "on"):
            monkeypatch.setenv(PROGRESS_ENV, value)
            assert progress_enabled() is True
        monkeypatch.setenv(PROGRESS_ENV, "0")
        assert progress_enabled() is False

    def test_tracer_emits_once_per_simulated_hour(self):
        stream = io.StringIO()
        engine = Engine()
        tracer = EngineTracer("lbl", stream=stream, sim_interval=HOUR, check_every=1)
        tracer.install(engine)
        for i in range(1, 6):
            engine.schedule(i * HOUR + 1.0, lambda: None)
        engine.run_until(6 * HOUR)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 5
        assert all(line.startswith("[lbl]") for line in lines)


# -- canonical rendering ------------------------------------------------------------


class TestRendering:
    def test_render_line_is_compact_and_key_sorted(self):
        line = render_line({"b": 1, "a": {"z": 2, "y": 3}})
        assert line == '{"a":{"y":3,"z":2},"b":1}'

    def test_default_buckets_strictly_ascend(self):
        assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)
        assert len(set(DEFAULT_TIME_BUCKETS)) == len(DEFAULT_TIME_BUCKETS)
