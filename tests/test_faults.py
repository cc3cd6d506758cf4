"""Tests for the fault-injection subsystem (:mod:`repro.faults`).

Four layers of coverage:

* config validation, the ``enabled`` switchboard, and retry/backoff
  arithmetic (caps, jitter bounds, budget awareness, None-only retries),
* runtime mechanics — deterministic peer assignment, message loss and
  duplication, partition sides, slow-node penalties, exempt vantage points,
* identity-by-default — ``faults=None``, an all-zero-rate config, and a
  retry-only config all produce byte-identical summaries and draw nothing
  from any RNG (the fixed-seed goldens in ``test_scenarios.py`` pin the
  catalog side), and
* scenario-level effects: crash storms leave dirty provider records behind
  (unlike graceful churn), healed partitions recover within the configured
  spread, and fault schedules and retry sequences are deterministic per seed
  (hypothesis property tests).
"""

import json
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults.config import (
    CrashConfig,
    FaultConfig,
    LinkFaultConfig,
    PartitionConfig,
    SlowNodeConfig,
)
from repro.faults.retry import RetryPolicy, RetryState
from repro.faults.runtime import FaultRuntime, FaultStats
from repro.scenarios.registry import build_scenario_config, run_scenario_by_name
from repro.simulation.engine import Engine
from repro.simulation.scenario import Scenario
from repro.sweep import summarize_cell, summarize_result


class TestConfigValidation:
    def test_defaults_are_valid(self):
        FaultConfig()
        LinkFaultConfig()
        CrashConfig()
        PartitionConfig(start=100.0, duration=50.0)
        SlowNodeConfig()
        RetryPolicy()

    def test_rates_bounded(self):
        with pytest.raises(ValueError, match="loss_rate"):
            LinkFaultConfig(loss_rate=1.5)
        with pytest.raises(ValueError, match="duplicate_rate"):
            LinkFaultConfig(duplicate_rate=-0.1)
        with pytest.raises(ValueError, match="share"):
            CrashConfig(share=2.0)
        with pytest.raises(ValueError, match="share"):
            PartitionConfig(start=0.0, duration=10.0, share=-0.5)

    def test_times_positive(self):
        with pytest.raises(ValueError, match="mtbf"):
            CrashConfig(mtbf=0.0)
        with pytest.raises(ValueError, match="restart_mean"):
            CrashConfig(restart_mean=-1.0)
        with pytest.raises(ValueError, match="duration"):
            PartitionConfig(start=0.0, duration=0.0)
        with pytest.raises(ValueError, match="recovery_spread"):
            PartitionConfig(start=0.0, duration=10.0, recovery_spread=0.0)

    def test_slow_factors_ordered(self):
        with pytest.raises(ValueError, match="min_factor"):
            SlowNodeConfig(min_factor=0.5)
        with pytest.raises(ValueError, match="max_factor"):
            SlowNodeConfig(min_factor=5.0, max_factor=2.0)

    def test_retry_policy_validated(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="base_delay"):
            RetryPolicy(base_delay=0.0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="max_delay"):
            RetryPolicy(base_delay=2.0, max_delay=1.0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)

    def test_enabled_requires_an_active_block(self):
        assert not FaultConfig().enabled
        assert not FaultConfig(links=LinkFaultConfig(loss_rate=0.0)).enabled
        assert not FaultConfig(crash=CrashConfig(share=0.0)).enabled
        assert not FaultConfig(slow=SlowNodeConfig(share=0.0)).enabled
        # A retry policy with nothing to retry against stays dormant.
        assert not FaultConfig(retry=RetryPolicy()).enabled
        assert FaultConfig(links=LinkFaultConfig(loss_rate=0.01)).enabled
        assert FaultConfig(crash=CrashConfig()).enabled
        assert FaultConfig(partition=PartitionConfig(start=0.0, duration=1.0)).enabled
        assert FaultConfig(slow=SlowNodeConfig()).enabled


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=5.0, jitter=0.0)
        assert [policy.backoff(i) for i in range(4)] == [1.0, 2.0, 4.0, 5.0]

    def test_jitter_stays_within_bounds(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, max_delay=1.0, jitter=0.5)
        rng = random.Random(3)
        delays = [policy.backoff(0, rng) for _ in range(200)]
        assert all(0.5 <= d <= 1.5 for d in delays)
        assert len(set(delays)) > 1

    def test_call_retries_none_only(self):
        stats = FaultStats()
        state = RetryState(RetryPolicy(max_attempts=3, jitter=0.0), random.Random(0),
                           clock=None, stats=stats)
        # An empty reply is a delivered reply, not a network failure.
        calls = []

        def empty_reply():
            calls.append(1)
            return []

        assert state.call(empty_reply) == []
        assert len(calls) == 1
        assert stats.retry_extra == 0

    def test_call_recovers_after_failures(self):
        stats = FaultStats()
        state = RetryState(RetryPolicy(max_attempts=3, jitter=0.0), random.Random(0),
                           clock=None, stats=stats)
        outcomes = iter([None, None, "block"])
        assert state.call(lambda: next(outcomes)) == "block"
        assert stats.retry_calls == 1
        assert stats.retry_extra == 2
        assert stats.retry_recoveries == 1

    def test_call_gives_up_at_max_attempts(self):
        stats = FaultStats()
        state = RetryState(RetryPolicy(max_attempts=3, jitter=0.0), random.Random(0),
                           clock=None, stats=stats)
        calls = []

        def always_lost():
            calls.append(1)
            return None

        assert state.call(always_lost) is None
        assert len(calls) == 3
        assert stats.retry_recoveries == 0

    def test_call_respects_the_walk_budget(self):
        class FakeClock:
            def __init__(self):
                self.elapsed = 0.0

            def expired(self):
                return self.elapsed >= 1.0

        stats = FaultStats()
        clock = FakeClock()
        policy = RetryPolicy(max_attempts=10, base_delay=0.6, multiplier=1.0,
                             max_delay=0.6, jitter=0.0)
        state = RetryState(policy, random.Random(0), clock=clock, stats=stats)
        calls = []

        def always_lost():
            calls.append(1)
            return None

        assert state.call(always_lost) is None
        # first call + one retry: the second backoff wait spends the 1.0 s
        # budget, so the walk abandons its remaining attempts.
        assert len(calls) == 2
        assert clock.elapsed == pytest.approx(1.2)


def _runtime(config, seed=7, engine=None):
    return FaultRuntime(config, seed, engine if engine is not None else Engine())


class TestRuntimeAssignment:
    def test_assignment_is_deterministic(self):
        config = FaultConfig(
            crash=CrashConfig(share=0.5),
            partition=PartitionConfig(start=10.0, duration=5.0, share=0.3),
            slow=SlowNodeConfig(share=0.4),
        )
        a = _runtime(config)
        b = _runtime(config)
        flts_a = [a.assign_peer() for _ in range(200)]
        flts_b = [b.assign_peer() for _ in range(200)]
        assert [(f.side, f.slow_factor, f.crashable) for f in flts_a] == [
            (f.side, f.slow_factor, f.crashable) for f in flts_b
        ]

    def test_exempt_peers_draw_but_stay_clean(self):
        config = FaultConfig(
            crash=CrashConfig(share=1.0),
            partition=PartitionConfig(start=10.0, duration=5.0, share=1.0),
            slow=SlowNodeConfig(share=1.0),
        )
        runtime = _runtime(config)
        flts = [runtime.assign_peer(exempt=True) for _ in range(20)]
        assert all(
            not f.crashable and f.side == 0 and f.slow_factor == 1.0 for f in flts
        )
        # the stream advanced identically: a non-exempt runtime's 21st draw
        # matches this one's
        other = _runtime(config)
        for _ in range(20):
            other.assign_peer()
        assert runtime.assign_peer().slow_factor == other.assign_peer().slow_factor

    def test_shares_roughly_respected(self):
        config = FaultConfig(crash=CrashConfig(share=0.3), slow=SlowNodeConfig(share=0.6))
        runtime = _runtime(config)
        for _ in range(2000):
            runtime.assign_peer()
        assert runtime.stats.crash_eligible / 2000 == pytest.approx(0.3, abs=0.05)
        assert runtime.stats.slow_nodes / 2000 == pytest.approx(0.6, abs=0.05)


class TestPartitionRecovery:
    """A minority peer's recovery is the delay from the heal to its first
    re-contact, made in the session it was in at the heal."""

    @staticmethod
    def _healed():
        config = FaultConfig(partition=PartitionConfig(start=10.0, duration=5.0, share=1.0))
        runtime = _runtime(config)
        peer = SimpleNamespace(flt=runtime.assign_peer(), sessions_started=3)
        assert peer.flt.side == 1
        runtime._partition_heal(SimpleNamespace(online_peers=lambda: [peer], identities=[]))
        return runtime, peer

    def test_contact_in_the_heal_session_is_one_recovery(self):
        runtime, peer = self._healed()
        runtime.note_contact_made(peer)
        runtime.note_contact_made(peer)
        assert runtime.stats.recovered_peers == 1
        assert len(runtime.stats.recovery_delays) == 1

    def test_peer_that_leaves_before_its_contact_adds_no_sample(self):
        runtime, peer = self._healed()
        peer.sessions_started += 1  # went offline, back in a later session
        runtime.note_contact_made(peer)
        assert runtime.stats.recovered_peers == 0
        assert runtime.stats.recovery_delays == []
        peer.sessions_started += 1
        runtime.note_contact_made(peer)
        assert runtime.stats.recovered_peers == 0


class TestMessageFaults:
    def test_total_loss_drops_everything(self):
        runtime = _runtime(FaultConfig(links=LinkFaultConfig(loss_rate=1.0)))
        assert not any(runtime.deliver(None, None) for _ in range(50))
        assert runtime.stats.rpc_lost == 50

    def test_zero_loss_delivers_everything_without_draws(self):
        runtime = _runtime(FaultConfig(links=LinkFaultConfig(loss_rate=0.0)))
        state = runtime.rng.getstate()
        assert all(runtime.deliver(None, None) for _ in range(50))
        assert runtime.rng.getstate() == state

    def test_duplicates_only_burn_bookkeeping(self):
        runtime = _runtime(
            FaultConfig(links=LinkFaultConfig(loss_rate=0.0, duplicate_rate=1.0))
        )
        assert all(runtime.deliver(None, None) for _ in range(20))
        assert runtime.stats.rpc_duplicated == 20

    def test_partition_separates_sides_during_the_window(self):
        runtime = _runtime(
            FaultConfig(partition=PartitionConfig(start=10.0, duration=5.0))
        )
        minority = runtime.assign_peer()
        minority.side = 1
        majority = runtime.assign_peer()
        majority.side = 0
        assert runtime.partitioned(majority, minority, 12.0)
        assert not runtime.partitioned(majority, minority, 9.0)
        assert not runtime.partitioned(majority, minority, 15.0)
        assert not runtime.partitioned(minority, minority, 12.0)
        # identities (None) sit on the majority side
        assert runtime.partitioned(None, minority, 12.0)
        assert not runtime.partitioned(None, majority, 12.0)

    def test_slow_penalty_scales_the_rtt(self):
        runtime = _runtime(FaultConfig(slow=SlowNodeConfig(share=1.0)))
        flt = runtime.assign_peer()
        flt.slow_factor = 4.0
        assert runtime.slow_penalty(flt, 0.1) == pytest.approx(0.3)
        assert runtime.slow_penalty(flt, 0.0) == 0.0
        assert runtime.slow_penalty(None, 0.1) == 0.0
        fast = runtime.assign_peer()
        fast.slow_factor = 1.0
        assert runtime.slow_penalty(fast, 0.1) == 0.0
        assert runtime.stats.slow_charges == 1


def _p1_summary(faults):
    config = build_scenario_config("p1", n_peers=40, duration_days=0.02, seed=5)
    config = replace(config, population=replace(config.population, faults=faults))
    result = Scenario(config).run()
    return summarize_result("p1", 40, 0.02, 5, result)


class TestIdentityByDefault:
    def test_plain_scenarios_carry_no_fault_stats(self):
        result = run_scenario_by_name("p1", n_peers=40, duration_days=0.01, seed=5)
        assert result.faults is None
        summary = summarize_cell("p1", 40, 0.01, 5)
        assert summary["resilience"] is None

    def test_zero_rate_config_is_byte_identical_to_none(self):
        baseline = _p1_summary(None)
        zero_rate = _p1_summary(
            FaultConfig(
                links=LinkFaultConfig(loss_rate=0.0, duplicate_rate=0.0),
                crash=CrashConfig(share=0.0),
                slow=SlowNodeConfig(share=0.0),
            )
        )
        assert json.dumps(baseline, sort_keys=True) == json.dumps(
            zero_rate, sort_keys=True
        )

    def test_retry_only_config_is_byte_identical_to_none(self):
        baseline = _p1_summary(None)
        retry_only = _p1_summary(FaultConfig(retry=RetryPolicy()))
        assert json.dumps(baseline, sort_keys=True) == json.dumps(
            retry_only, sort_keys=True
        )

    def test_disabled_runtime_is_never_instantiated(self):
        config = build_scenario_config("p1", n_peers=30, duration_days=0.01, seed=5)
        config = replace(
            config,
            population=replace(
                config.population, faults=FaultConfig(retry=RetryPolicy())
            ),
        )
        scenario = Scenario(config)
        scenario.run()
        assert scenario.network.faults is None


class TestScenarioEffects:
    def test_crash_storm_leaves_dirty_state(self):
        result = run_scenario_by_name(
            "crash-storm", n_peers=120, duration_days=0.05, seed=7
        )
        stats = result.faults
        assert stats.crashes > 0
        # Crashes are abrupt: restarts never exceed crashes, and the dirty
        # provider records left behind surface as stale hits on retrievers —
        # the signature graceful churn (which withdraws nothing either but
        # reschedules its own sessions) cannot produce: crash-downed peers
        # only come back through the fault runtime's restart events.
        assert 0 < stats.restarts <= stats.crashes
        assert stats.stale_provider_hits > 0
        assert stats.recovery_republishes > 0

    def test_lossy_links_drop_and_retries_recover(self):
        result = run_scenario_by_name(
            "lossy-links", n_peers=120, duration_days=0.05, seed=7
        )
        stats = result.faults
        assert stats.rpc_lost > 0
        assert stats.retry_recoveries > 0
        assert stats.retry_amplification > 1.0

    def test_an_int_partition_time_fires_at_a_float_now(self, monkeypatch):
        # An int time built through the API must not leak into `now`, and
        # from there into the timestamps the partition's closes record.
        seen = []
        real = FaultRuntime._partition_start

        def spy(runtime, network):
            seen.append(runtime.engine.now)
            real(runtime, network)

        monkeypatch.setattr(FaultRuntime, "_partition_start", spy)
        config = build_scenario_config("partition-heal", n_peers=60, duration_days=0.02, seed=7)
        config.population.faults = replace(
            config.population.faults, partition=PartitionConfig(start=600, duration=300)
        )
        Scenario(config).run()
        assert seen == [600.0] and type(seen[0]) is float

    def test_partition_heal_recovers_within_the_spread(self):
        result = run_scenario_by_name(
            "partition-heal", n_peers=120, duration_days=0.05, seed=7
        )
        stats = result.faults
        assert stats.partition_severed > 0
        assert stats.heal_time is not None
        assert stats.recovered_peers > 0
        spread = max(0.05 * 86_400.0 * 0.02, 60.0)
        assert all(0.0 <= delay <= spread for delay in stats.recovery_delays)

    def test_fault_summaries_are_deterministic(self):
        first = summarize_cell("lossy-links", 60, 0.02, 7)
        second = summarize_cell("lossy-links", 60, 0.02, 7)
        assert first == second
        block = first["resilience"]
        assert block["rpc"]["lost"] > 0
        assert block["retry"]["amplification"] >= 1.0
        assert set(block["stale"]) == {"provider_checks", "stale_hits", "stale_rate"}


class TestPropertyBased:
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        share=st.floats(min_value=0.0, max_value=1.0),
        peers=st.integers(min_value=1, max_value=60),
    )
    def test_assignments_deterministic_per_seed(self, seed, share, peers):
        config = FaultConfig(
            crash=CrashConfig(share=share),
            slow=SlowNodeConfig(share=share),
        )
        a = FaultRuntime(config, seed, Engine())
        b = FaultRuntime(config, seed, Engine())
        for _ in range(peers):
            fa = a.assign_peer()
            fb = b.assign_peer()
            assert (fa.crashable, fa.slow_factor) == (fb.crashable, fb.slow_factor)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        base=st.floats(min_value=0.01, max_value=4.0),
        multiplier=st.floats(min_value=1.0, max_value=4.0),
        jitter=st.floats(min_value=0.0, max_value=0.99),
        retries=st.integers(min_value=1, max_value=12),
    )
    def test_backoff_sequences_deterministic_and_capped(
        self, seed, base, multiplier, jitter, retries
    ):
        policy = RetryPolicy(
            base_delay=base, multiplier=multiplier, max_delay=base * 8, jitter=jitter
        )
        first = [policy.backoff(i, random.Random(seed)) for i in range(retries)]
        second = [policy.backoff(i, random.Random(seed)) for i in range(retries)]
        assert first == second
        ceiling = base * 8 * (1.0 + jitter)
        assert all(0.0 < delay <= ceiling + 1e-9 for delay in first)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        loss=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_fault_streams_deterministic_per_seed(self, seed, loss):
        config = FaultConfig(links=LinkFaultConfig(loss_rate=loss))
        a = FaultRuntime(config, seed, Engine())
        b = FaultRuntime(config, seed, Engine())
        outcomes_a = [a.deliver(None, None) for _ in range(40)]
        outcomes_b = [b.deliver(None, None) for _ in range(40)]
        assert outcomes_a == outcomes_b
        assert a.stats.rpc_lost == b.stats.rpc_lost
