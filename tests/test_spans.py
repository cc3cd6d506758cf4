"""Causal span tracing: determinism, attribution, and instrumentation edges.

Three layers of coverage for :mod:`repro.obs.spans` and
:mod:`repro.obs.trace_export`:

* unit tests drive a :class:`SpanTracer` against a stub engine and check the
  rendered trees, the deterministic sampling hash, and the retention caps;
* retry-interaction tests pin the ``WalkClock`` x ``RetryState`` edges — a
  backoff that lands exactly on the lookup-timeout boundary, and retry
  exhaustion inside a traced span recording the full attempt sequence;
* scenario tests prove the fleet-level contract: attaching the tracer is
  behaviour-neutral (identical result fingerprints), the exported
  ``traces.jsonl`` is byte-identical across reruns, and per-trace
  critical-path attribution telescopes to the measured operation latency.
"""

import dataclasses
import types

import pytest

from repro.artifacts import read_jsonl
from repro.obs.spans import SpanTracer, TraceConfig
from repro.obs.trace_export import (
    leaf_attribution,
    render_trace_line,
    write_traces,
)
from repro.faults.retry import RetryPolicy, RetryState
from repro.netmodel.config import NetModelConfig
from repro.scenarios.registry import build_scenario_config
from repro.simulation.scenario import run_scenario

from fingerprint import result_fingerprint


def traces_jsonl(summary) -> str:
    """The exact traces.jsonl content for a trace summary's retained traces."""
    return "".join(render_trace_line(payload) + "\n" for payload in summary.traces)


def make_tracer(sample=1.0, **kwargs) -> SpanTracer:
    """A tracer on a stub engine whose clock never advances."""
    config = TraceConfig(sample=sample, **kwargs)
    return SpanTracer(config, types.SimpleNamespace(now=0.0))


def traced_config(name, *, n_peers, duration_days=0.02, seed=7, **trace_kwargs):
    config = build_scenario_config(
        name, n_peers=n_peers, duration_days=duration_days, seed=seed
    )
    return dataclasses.replace(
        config,
        population=dataclasses.replace(
            config.population, trace=TraceConfig(**trace_kwargs)
        ),
    )


class TestTraceConfig:
    def test_rejects_out_of_range_sample(self):
        for sample in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="sample"):
                TraceConfig(sample=sample)

    def test_rejects_nonpositive_caps(self):
        with pytest.raises(ValueError, match="max_traces"):
            TraceConfig(max_traces=0)
        with pytest.raises(ValueError, match="max_children"):
            TraceConfig(max_children=0)


class TestSpanTracerUnit:
    def test_root_key_and_per_kind_sequence(self):
        tracer = make_tracer()
        for _ in range(2):
            tracer.begin("content.retrieve", 3)
            tracer.finish_root(1.0)
        keys = [t["key"] for t in tracer.finalize(0.0).traces]
        assert keys == ["content.retrieve:3:0", "content.retrieve:3:1"]

    def test_structural_nesting_and_leaves_render(self):
        tracer = make_tracer()
        tracer.begin("content.retrieve", 0)
        tracer.push("walk", "walk")
        tracer.leaf("lookup", "walk", 0.5)
        tracer.pop(0.75, hops=2)
        tracer.finish_root(1.25, providers=1)
        trace = tracer.finalize(0.0).traces[0]
        root = trace["root"]
        assert root["name"] == "content.retrieve"
        assert root["cat"] == "op"
        assert root["seconds"] == 1.25
        assert root["attrs"] == {"providers": 1}
        (walk,) = root["children"]
        assert walk == {
            "name": "walk", "cat": "walk", "seconds": 0.75,
            "attrs": {"hops": 2},
            "children": [{"name": "lookup", "cat": "walk", "seconds": 0.5}],
        }

    def test_rpc_leaves_categorise_at_render(self):
        tracer = make_tracer()
        tracer.begin("content.retrieve", 0)
        tracer.hop(1)
        tracer.rpc("find_node", 0.2, "ok", rtt=0.2)
        tracer.rpc("find_node", 5.0, "dial_fail")
        tracer.set_attempt(1)
        tracer.rpc("find_node", 0.3, "lost")
        tracer.finish_root(5.5)
        ok, dial, lost = tracer.finalize(0.0).traces[0]["root"]["children"]
        assert ok["cat"] == "walk"
        assert ok["attrs"] == {"hop": 1, "rtt": 0.2}
        assert dial["cat"] == "dial"
        assert dial["attrs"] == {"hop": 1, "outcome": "dial_fail"}
        assert lost["cat"] == "walk"
        assert lost["attrs"] == {"attempt": 1, "hop": 1, "outcome": "lost"}

    def test_transfer_composite_expands_to_component_leaves(self):
        tracer = make_tracer()
        tracer.begin("content.retrieve", 0)
        tracer.transfer(0.1, 0.2, 0.3, 0.6, 1 << 20)
        tracer.finish_root(0.6)
        (transfer,) = tracer.finalize(0.0).traces[0]["root"]["children"]
        assert transfer["name"] == "transfer"
        assert transfer["cat"] == "transfer"
        assert transfer["seconds"] == 0.6
        assert transfer["attrs"] == {"size": 1 << 20}
        assert [c["name"] for c in transfer["children"]] == [
            "rtt", "queue_wait", "serialization",
        ]
        assert [c["cat"] for c in transfer["children"]] == [
            "transfer", "queue", "serialization",
        ]

    def test_finish_identify_records_whole_exchange(self):
        tracer = make_tracer()
        assert tracer.begin_identify("go-ipfs", 4)
        tracer.finish_identify(3.5, 2.0, [("netmodel", 1.0), ("bandwidth", 0.5)], "go-ipfs")
        trace = tracer.finalize(0.0).traces[0]
        assert trace["op"] == "identify"
        root = trace["root"]
        assert root["attrs"] == {"label": "go-ipfs"}
        names = [(c["name"], c["cat"]) for c in root["children"]]
        assert names == [
            ("netmodel", "walk"), ("bandwidth", "serialization"),
            ("process", "other"),
        ]

    def test_failed_and_timed_out_ops_always_kept(self):
        tracer = make_tracer(sample=1e-9)
        tracer.begin("content.retrieve", 0)
        tracer.finish_root(1.0, failed=True)
        tracer.begin("content.retrieve", 0)
        tracer.finish_root(2.0, timed_out=True)
        tracer.begin("content.retrieve", 0)
        tracer.finish_root(3.0)  # ok: dropped at this sample rate
        summary = tracer.finalize(0.0)
        assert summary.ops == {"content.retrieve": 3}
        assert summary.sampled == {"content.retrieve": 2}
        outcomes = [(t["outcome"], t.get("timed_out", False)) for t in summary.traces]
        assert outcomes == [("fail", False), ("ok", True)]

    def test_sampling_is_a_pure_function_of_the_key(self):
        def kept(tracer):
            for index in range(50):
                tracer.begin("content.retrieve", index)
                tracer.finish_root(1.0)
            return [t["key"] for t in tracer.finalize(0.0).traces]

        first, second = kept(make_tracer(sample=0.3)), kept(make_tracer(sample=0.3))
        assert first == second
        assert 0 < len(first) < 50

    def test_begin_identify_pre_gates_unsampled_exchanges(self):
        tracer = make_tracer(sample=0.3)
        decisions = []
        for index in range(50):
            kept = tracer.begin_identify("go-ipfs", index)
            decisions.append(kept)
            if kept:
                tracer.finish_identify(1.0, 1.0, [], "go-ipfs")
        assert any(decisions) and not all(decisions)
        summary = tracer.finalize(0.0)
        assert summary.ops == {"identify": 50}
        assert summary.sampled["identify"] == len(summary.traces) == sum(decisions)

    def test_max_traces_cap_counts_drops(self):
        tracer = make_tracer(max_traces=2)
        for _ in range(5):
            tracer.begin("content.retrieve", 0)
            tracer.finish_root(1.0)
        summary = tracer.finalize(0.0)
        assert len(summary.traces) == 2
        assert summary.traces_dropped == 3
        assert summary.sampled == {"content.retrieve": 5}

    def test_max_children_drops_leaves_not_structure(self):
        tracer = make_tracer(max_children=2)
        tracer.begin("crawler.walk", 0)
        for _ in range(5):
            tracer.rpc("find_node", 0.1, "ok", rtt=0.1)
        tracer.push("walk", "walk")
        tracer.pop(0.5)
        tracer.finish_root(1.0)
        root = tracer.finalize(0.0).traces[0]["root"]
        assert len(root["children"]) == 3  # 2 kept leaves + the structural span
        assert root["children_dropped"] == 3
        assert root["children"][-1]["name"] == "walk"

    def test_no_recording_outside_operations(self):
        tracer = make_tracer()
        assert not tracer.recording
        assert not tracer.active()
        tracer.backoff(1.0, 1)  # must be a no-op, not an AttributeError
        assert tracer.finalize(0.0).traces == []

    def test_jsonl_roundtrip_is_canonical(self, tmp_path):
        tracer = make_tracer()
        tracer.begin("content.provide", 1)
        tracer.rpc("add_provider", 0.25, "ok", rtt=0.25)
        tracer.finish_root(0.25)
        summary = tracer.finalize(0.0)
        path = tmp_path / "traces.jsonl"
        write_traces(summary.traces, str(path))
        assert path.read_text() == traces_jsonl(summary)
        assert read_jsonl(str(path)) == summary.traces
        line = render_trace_line(summary.traces[0])
        assert ": " not in line and ", " not in line

    def test_interrupted_export_leaves_no_file(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        with pytest.raises(TypeError):
            write_traces([{"trace": 1}, {"trace": object()}], str(path))
        assert list(tmp_path.iterdir()) == []


class TestLeafAttribution:
    def test_buckets_sum_to_root_duration_with_residual(self):
        tracer = make_tracer()
        tracer.begin("content.retrieve", 0)
        tracer.push("walk", "walk")
        tracer.rpc("find_node", 0.4, "ok", rtt=0.4)
        tracer.pop(0.5)  # 0.1s walk residual
        tracer.transfer(0.1, 0.2, 0.3, 0.6, 64)
        tracer.finish_root(1.2)  # 0.1s root residual
        buckets = leaf_attribution(tracer.finalize(0.0).traces[0]["root"])
        assert buckets["walk"] == pytest.approx(0.5)
        assert buckets["queue"] == pytest.approx(0.2)
        assert buckets["serialization"] == pytest.approx(0.3)
        assert buckets["transfer"] == pytest.approx(0.1)  # rtt leaf
        assert buckets["other"] == pytest.approx(0.1)
        assert sum(buckets.values()) == pytest.approx(1.2)

    def test_sums_hold_even_when_leaves_were_capped(self):
        tracer = make_tracer(max_children=1)
        tracer.begin("content.retrieve", 0)
        tracer.push("walk", "walk")
        for _ in range(4):
            tracer.rpc("find_node", 0.25, "ok", rtt=0.25)
        tracer.pop(1.0)
        tracer.finish_root(1.0)
        root = tracer.finalize(0.0).traces[0]["root"]
        buckets = leaf_attribution(root)
        # One kept 0.25s leaf; the walk's 0.75s of dropped leaves comes back
        # as the walk span's residual, so the total still telescopes.
        assert sum(buckets.values()) == pytest.approx(1.0)


class StubClock:
    """Duck-typed WalkClock: an elapsed accumulator with a fixed timeout."""

    def __init__(self, elapsed=0.0, timeout=None):
        self.elapsed = elapsed
        self.timeout = timeout

    def expired(self):
        return self.timeout is not None and self.elapsed >= self.timeout


def retry_stats():
    return types.SimpleNamespace(retry_calls=0, retry_extra=0, retry_recoveries=0)


class TestRetryTracing:
    """WalkClock x RetryState interaction edges inside a traced span."""

    def test_backoff_charged_exactly_at_timeout_boundary(self):
        # jitter=0 makes the first backoff exactly base_delay; start the
        # clock so elapsed + backoff == timeout.  The boundary is inclusive
        # (elapsed >= timeout), so the walk must abandon the remaining
        # attempts *after* charging the backoff, with the backoff recorded
        # as a leaf and no further RPC issued.
        policy = RetryPolicy(max_attempts=3, base_delay=2.0, jitter=0.0)
        clock = StubClock(elapsed=8.0, timeout=10.0)
        tracer = make_tracer()
        tracer.begin("content.retrieve", 0)
        stats = retry_stats()
        calls = []
        retry = RetryState(policy, None, clock=clock, stats=stats, tracer=tracer)
        result = retry.call(lambda: calls.append(len(calls)))
        assert result is None
        assert calls == [0]  # the initial attempt only: no retry after expiry
        assert clock.elapsed == pytest.approx(10.0)
        assert stats.retry_extra == 0
        tracer.finish_root(clock.elapsed, timed_out=True)
        (backoff,) = tracer.finalize(0.0).traces[0]["root"]["children"]
        assert backoff["name"] == "backoff"
        assert backoff["cat"] == "backoff"
        assert backoff["seconds"] == 2.0
        assert backoff["attrs"] == {"attempt": 1}

    def test_exhaustion_records_the_full_attempt_sequence(self):
        policy = RetryPolicy(max_attempts=3, base_delay=1.0, multiplier=2.0, jitter=0.0)
        clock = StubClock(elapsed=0.0, timeout=None)
        tracer = make_tracer()
        tracer.begin("content.retrieve", 0)
        stats = retry_stats()
        seen_attempts = []
        retry = RetryState(policy, None, clock=clock, stats=stats, tracer=tracer)

        def failing():
            # What the RPC leaf would be stamped with at this point.
            seen_attempts.append(tracer._attempt)
            return None

        assert retry.call(failing) is None
        assert seen_attempts == [0, 1, 2]
        assert stats.retry_extra == 2
        assert clock.elapsed == pytest.approx(1.0 + 2.0)
        assert tracer._attempt == 0  # reset for the walk's next RPC
        tracer.finish_root(clock.elapsed, failed=True)
        leaves = tracer.finalize(0.0).traces[0]["root"]["children"]
        assert [(leaf["name"], leaf["attrs"]["attempt"]) for leaf in leaves] == [
            ("backoff", 1), ("backoff", 2),
        ]
        assert [leaf["seconds"] for leaf in leaves] == [1.0, 2.0]

    def test_unclocked_retries_record_no_backoff_leaves(self):
        policy = RetryPolicy(max_attempts=2, base_delay=1.0, jitter=0.0)
        tracer = make_tracer()
        tracer.begin("content.retrieve", 0)
        retry = RetryState(policy, None, clock=None, stats=None, tracer=tracer)
        assert retry.call(lambda: None) is None
        tracer.finish_root(0.0, failed=True)
        assert "children" not in tracer.finalize(0.0).traces[0]["root"]


class TestScenarioTracing:
    @pytest.fixture(scope="class")
    def traced_run(self):
        return run_scenario(traced_config("high-latency-retrieval", n_peers=60))

    def test_tracing_is_behaviour_neutral(self, traced_run):
        off = run_scenario(
            build_scenario_config(
                "high-latency-retrieval", n_peers=60, duration_days=0.02, seed=7
            )
        )
        assert off.spans is None
        assert traced_run.spans is not None
        assert result_fingerprint(off) == result_fingerprint(traced_run)

    def test_attribution_telescopes_to_measured_latency(self, traced_run):
        traces = traced_run.spans.traces
        retrieves = [t for t in traces if t["op"] == "content.retrieve"]
        assert retrieves
        for trace in retrieves:
            buckets = leaf_attribution(trace["root"])
            assert sum(buckets.values()) == pytest.approx(
                trace["root"]["seconds"], abs=1e-9
            )

    def test_every_operation_kind_traced(self, traced_run):
        assert set(traced_run.spans.ops) >= {"content.retrieve", "identify"}
        assert traced_run.spans.sampled == traced_run.spans.ops  # full sampling

    def test_rerun_renders_byte_identical_jsonl(self, traced_run):
        again = run_scenario(traced_config("high-latency-retrieval", n_peers=60))
        assert traces_jsonl(again.spans) == traces_jsonl(traced_run.spans)

    def test_jsonl_path_streams_at_finalize(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        result = run_scenario(
            traced_config("lossy-links", n_peers=50, jsonl_path=str(path))
        )
        assert path.read_text() == traces_jsonl(result.spans)

    def test_adversary_on_a_netmodel_fabric_traces_dropped_replies(self):
        """No registered scenario puts attackers on a clocked fabric, so one
        is composed here: a walk that an attacker's dropped reply cost a
        round trip must still account for every second it spent."""

        def run():
            config = traced_config("poisoned-routing-under-churn", n_peers=60)
            return run_scenario(
                dataclasses.replace(
                    config,
                    population=dataclasses.replace(
                        config.population, netmodel=NetModelConfig()
                    ),
                )
            )

        result = run()
        again = run()
        assert result_fingerprint(again) == result_fingerprint(result)
        assert traces_jsonl(again.spans) == traces_jsonl(result.spans)

        dropped = []

        def check(span):
            children = span.get("children")
            if not children:
                if (span.get("attrs") or {}).get("outcome") == "dropped":
                    dropped.append(span["seconds"])
                return
            # Children never outlast their parent (the residual is never
            # negative); every exported duration is rounded to 6 decimals,
            # so allow half a unit in the last place per term.
            slack = 5e-7 * (len(children) + 1)
            assert sum(c["seconds"] for c in children) <= span["seconds"] + slack
            for child in children:
                check(child)

        for trace in result.spans.traces:
            root = trace["root"]
            check(root)
            assert sum(leaf_attribution(root).values()) == pytest.approx(
                root["seconds"], abs=1e-9
            )
        assert dropped and all(seconds > 0.0 for seconds in dropped)
