"""Tests for the network-realism subsystem (:mod:`repro.netmodel`).

Four layers of coverage:

* config validation and runtime arithmetic (regions, RTTs, jitter, relay
  penalty, dial semantics, walk clocks),
* the ``give_up`` hook on the iterative lookup machinery,
* identity-by-default — attaching ``netmodel=None`` draws nothing and the
  scenario result carries no netmodel stats (the fixed-seed goldens in
  ``test_scenarios.py`` pin the byte-identity side),
* scenario-level effects: crawler undercount under NAT, lookup timeouts
  under a tight budget, and deterministic sweep summaries.
"""

import random

import pytest

from repro.kademlia.dht import iterative_lookup
from repro.libp2p.peer_id import PeerId
from repro.netmodel.config import (
    DIAL_TIMEOUT,
    NAT,
    PUBLIC,
    REGION_WEIGHTS,
    REGIONS,
    RELAYED,
    RTT_MATRIX,
    NetModelConfig,
    ReachabilityConfig,
)
from repro.netmodel.runtime import NetModelRuntime, PeerNet
from repro.scenarios.registry import run_scenario_by_name
from repro.simulation.population import PopulationConfig, generate_population
from repro.sweep import plan_cell, summarize_cell


class TestConfigValidation:
    def test_defaults_are_valid(self):
        NetModelConfig()

    # The region model is one set of constants; these pin what its old
    # validation checked, so an edit to them cannot break the runtime's
    # index arithmetic.
    def test_region_weights_must_match_names(self):
        assert len(REGION_WEIGHTS) == len(REGIONS)

    def test_region_weights_must_sum_to_one(self):
        assert all(weight >= 0 for weight in REGION_WEIGHTS)
        assert sum(REGION_WEIGHTS) == pytest.approx(1.0)

    def test_rtt_matrix_must_be_symmetric(self):
        n = len(REGIONS)
        assert all(RTT_MATRIX[i][j] == RTT_MATRIX[j][i] for i in range(n) for j in range(n))

    def test_rtt_matrix_must_be_square(self):
        n = len(REGIONS)
        assert len(RTT_MATRIX) == n and all(len(row) == n for row in RTT_MATRIX)
        assert all(value > 0 for row in RTT_MATRIX for value in row)

    def test_shares_bounded(self):
        with pytest.raises(ValueError, match="nat_share"):
            ReachabilityConfig(nat_share=1.5)
        with pytest.raises(ValueError, match="<= 1"):
            ReachabilityConfig(nat_share=0.7, relay_share=0.5)

    def test_timeouts_positive(self):
        assert DIAL_TIMEOUT > 0
        with pytest.raises(ValueError, match="lookup_timeout"):
            NetModelConfig(lookup_timeout=-1.0)

    def test_rtt_scale_positive(self):
        with pytest.raises(ValueError, match="rtt_scale must be positive, got 0"):
            NetModelConfig(rtt_scale=0)

    def test_relay_penalty_at_least_one(self):
        with pytest.raises(ValueError, match="relay_penalty"):
            ReachabilityConfig(relay_penalty=0.5)


class TestRuntimeAssignment:
    def test_assignment_is_deterministic(self):
        config = NetModelConfig()
        a = NetModelRuntime(config, seed=7)
        b = NetModelRuntime(config, seed=7)
        nets_a = [a.assign_peer() for _ in range(200)]
        nets_b = [b.assign_peer() for _ in range(200)]
        assert [(n.region, n.reachability, n.jitter) for n in nets_a] == [
            (n.region, n.reachability, n.jitter) for n in nets_b
        ]

    def test_class_shares_roughly_respected(self):
        config = NetModelConfig(
            reachability=ReachabilityConfig(nat_share=0.5, relay_share=0.2)
        )
        runtime = NetModelRuntime(config, seed=3)
        for _ in range(2000):
            runtime.assign_peer()
        counts = runtime.stats.class_counts
        assert counts[NAT] / 2000 == pytest.approx(0.5, abs=0.05)
        assert counts[RELAYED] / 2000 == pytest.approx(0.2, abs=0.04)
        assert runtime.stats.peers == 2000
        assert sum(runtime.stats.region_counts.values()) == 2000

    def test_behind_nat_forces_nat_class(self):
        config = NetModelConfig(reachability=ReachabilityConfig(nat_share=0.0))
        runtime = NetModelRuntime(config, seed=5)
        nets = [runtime.assign_peer(behind_nat=True) for _ in range(20)]
        assert all(n.reachability is NAT for n in nets)

    def test_force_public_overrides_everything(self):
        config = NetModelConfig(
            reachability=ReachabilityConfig(nat_share=0.9, relay_share=0.1)
        )
        runtime = NetModelRuntime(config, seed=5)
        nets = [
            runtime.assign_peer(behind_nat=True, force_public=True) for _ in range(20)
        ]
        assert all(n.reachability is PUBLIC for n in nets)

    def test_identities_are_public(self):
        runtime = NetModelRuntime(NetModelConfig(), seed=9)
        net = runtime.assign_identity("go-ipfs")
        assert net.reachability is PUBLIC
        assert runtime.identity_net["go-ipfs"] is net


class TestLatencyArithmetic:
    def _runtime(self, **reach):
        return NetModelRuntime(NetModelConfig(reachability=ReachabilityConfig(**reach)), seed=1)

    def test_rtt_reads_the_matrix_symmetrically(self):
        runtime = self._runtime()
        a = PeerNet(0, PUBLIC, 1.0)
        b = PeerNet(1, PUBLIC, 1.0)
        assert runtime.rtt(a, b) == pytest.approx(RTT_MATRIX[0][1])
        assert runtime.rtt(b, a) == pytest.approx(RTT_MATRIX[0][1])
        assert runtime.rtt(a, a) == pytest.approx(RTT_MATRIX[0][0])

    def test_relay_endpoint_pays_the_penalty(self):
        runtime = self._runtime(relay_penalty=3.0)
        a = PeerNet(0, PUBLIC, 1.0)
        r = PeerNet(1, RELAYED, 1.0)
        assert runtime.rtt(a, r) == pytest.approx(3.0 * RTT_MATRIX[0][1])

    def test_scale_multiplies_every_rtt(self):
        slow = NetModelRuntime(NetModelConfig(rtt_scale=4.0), seed=1)
        fast = NetModelRuntime(NetModelConfig(), seed=1)
        a = PeerNet(0, PUBLIC, 1.0)
        b = PeerNet(1, PUBLIC, 1.0)
        assert slow.rtt(a, b) == pytest.approx(4.0 * fast.rtt(a, b))

    def test_jitter_multiplies_the_pair_mean(self):
        runtime = self._runtime()
        a = PeerNet(0, PUBLIC, 0.8)
        b = PeerNet(0, PUBLIC, 1.2)
        assert runtime.rtt(a, b) == pytest.approx(RTT_MATRIX[0][0])  # mean jitter 1.0
        assert runtime.rtt(a, a) == pytest.approx(0.8 * RTT_MATRIX[0][0])

    def test_dial_counts_attempts_and_failures(self):
        runtime = self._runtime()
        public = PeerNet(0, PUBLIC, 1.0)
        nat = PeerNet(0, NAT, 1.0)
        relayed = PeerNet(0, RELAYED, 1.0)
        assert runtime.dial(public)
        assert not runtime.dial(nat)
        assert runtime.dial(relayed)
        stats = runtime.stats
        assert stats.dial_attempts == 3
        assert stats.dial_failures == 1
        assert stats.relay_dials == 1
        assert stats.dial_failure_rate == pytest.approx(1 / 3)


class TestWalkClock:
    def _runtime(self, lookup_timeout):
        config = NetModelConfig(
            reachability=ReachabilityConfig(nat_share=0.0, relay_share=0.0),
            lookup_timeout=lookup_timeout,
        )
        return NetModelRuntime(config, seed=1)

    def test_charges_accumulate_and_expire(self):
        rtt = RTT_MATRIX[0][0]
        runtime = self._runtime(lookup_timeout=3.5 * rtt)
        net = PeerNet(0, PUBLIC, 1.0)
        clock = runtime.clock(net)
        assert not clock.expired()
        for _ in range(3):
            assert clock.dial(net)
            clock.charge(net)
        assert clock.elapsed == pytest.approx(3 * rtt)
        assert not clock.expired()
        clock.charge(net)
        assert clock.expired()
        assert clock.finish() == pytest.approx(4 * rtt)
        assert runtime.stats.lookups_timed == 1
        assert runtime.stats.lookup_timeouts == 1
        assert runtime.stats.rpc_messages == 4

    def test_failed_dial_burns_the_dial_timeout(self):
        runtime = self._runtime(lookup_timeout=None)
        nat = runtime.assign_peer(behind_nat=True)
        clock = runtime.clock(nat)
        assert not clock.dial(nat)
        assert clock.elapsed == DIAL_TIMEOUT
        assert not clock.expired()  # unbounded walks never expire
        clock.finish()
        assert runtime.stats.lookup_timeouts == 0


class TestGiveUpHook:
    def _pids(self, n, seed=4):
        rng = random.Random(seed)
        return [PeerId.random(rng) for _ in range(n)]

    def test_give_up_bounds_the_walk(self):
        peers = self._pids(30)
        neighbors = {p: peers for p in peers}
        calls = []

        def query(remote, target, count):
            calls.append(remote)
            return neighbors[remote][:count]

        result = iterative_lookup(
            target=123,
            query=query,
            seeds=peers[:3],
            give_up=lambda: len(calls) >= 4,
        )
        assert len(calls) == 4
        assert len(result.queried) == 4
        assert result.closest  # keeps what it found

    def test_give_up_none_is_identity(self):
        peers = self._pids(10)

        def query(remote, target, count):
            return peers[:count]

        bounded = iterative_lookup(target=1, query=query, seeds=peers[:3])
        unbounded = iterative_lookup(
            target=1, query=query, seeds=peers[:3], give_up=lambda: False
        )
        assert bounded.closest == unbounded.closest
        assert bounded.queried == unbounded.queried
        assert bounded.hops == unbounded.hops


class TestIdentityByDefault:
    def test_population_ignores_a_none_netmodel(self):
        base = PopulationConfig(n_peers=40, seed=3)
        with_field = PopulationConfig(n_peers=40, seed=3, netmodel=None)
        assert generate_population(base).profiles == generate_population(with_field).profiles

    def test_plain_scenarios_carry_no_netmodel_stats(self):
        result = run_scenario_by_name("p1", n_peers=40, duration_days=0.01, seed=5)
        assert result.netmodel is None
        # every simulated peer stays on the idealised fabric
        summary = summarize_cell(plan_cell("p1", 40, 0.01, 5))
        assert summary["netmodel"] is None


class TestScenarioEffects:
    def test_nat_heavy_crawl_undercounts(self):
        result = run_scenario_by_name(
            "nat-heavy-crawl", n_peers=80, duration_days=0.03, seed=11
        )
        stats = result.netmodel
        assert stats is not None
        assert stats.class_counts[NAT] > 0
        assert stats.dial_failures > 0
        discovered = set()
        reachable = set()
        for snapshot in result.crawls.snapshots:
            discovered.update(snapshot.discovered)
            reachable.update(snapshot.reachable)
        assert reachable < discovered  # strict subset: NATed servers unreached

    def test_timeout_bound_lookups_time_out(self):
        result = run_scenario_by_name(
            "timeout-bound-lookups", n_peers=80, duration_days=0.03, seed=11
        )
        stats = result.netmodel
        assert stats.lookups_timed > 0
        assert stats.lookup_timeouts > 0
        assert stats.lookup_timeouts <= stats.lookups_timed
        # accrued simulated latencies are real time, bounded by the budget
        # plus the final over-budget RPC and the post-walk store/fetch legs
        assert result.content.retrieve_latencies
        assert max(result.content.retrieve_latencies) > 0.0

    def test_relay_assisted_fetches_pay_the_penalty(self):
        relayed = run_scenario_by_name(
            "relay-assisted-content", n_peers=80, duration_days=0.03, seed=11
        )
        assert relayed.netmodel.relay_dials > 0
        assert relayed.netmodel.class_counts[RELAYED] > 0

    def test_sweep_summary_is_deterministic(self):
        first = summarize_cell(plan_cell("nat-heavy-crawl", 60, 0.02, 7))
        second = summarize_cell(plan_cell("nat-heavy-crawl", 60, 0.02, 7))
        assert first == second
        block = first["netmodel"]
        assert block["unreachable_share"] > 0.0
        assert block["crawl"]["undercount_vs_discovered"] >= 0.0
        assert set(block["rtt"]) == {"p50", "p90", "p99"}
