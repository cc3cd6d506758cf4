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
    NAT,
    NetModelConfig,
    PUBLIC,
    RELAYED,
    ReachabilityConfig,
    RegionModelConfig,
)
from repro.netmodel.runtime import NetModelRuntime
from repro.scenarios.registry import run_scenario_by_name
from repro.simulation.population import PopulationConfig, generate_population
from repro.sweep import summarize_cell


class TestConfigValidation:
    def test_defaults_are_valid(self):
        NetModelConfig()

    def test_region_weights_must_match_names(self):
        with pytest.raises(ValueError, match="weights"):
            RegionModelConfig(names=("a", "b"), weights=(1.0,), rtt_matrix=((0.1,),))

    def test_region_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            RegionModelConfig(
                names=("a", "b"),
                weights=(0.5, 0.4),
                rtt_matrix=((0.1, 0.2), (0.2, 0.1)),
            )

    def test_rtt_matrix_must_be_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            RegionModelConfig(
                names=("a", "b"),
                weights=(0.5, 0.5),
                rtt_matrix=((0.1, 0.2), (0.3, 0.1)),
            )

    def test_rtt_matrix_must_be_square(self):
        with pytest.raises(ValueError, match="2x2"):
            RegionModelConfig(
                names=("a", "b"), weights=(0.5, 0.5), rtt_matrix=((0.1, 0.2),)
            )

    def test_shares_bounded(self):
        with pytest.raises(ValueError, match="nat_share"):
            ReachabilityConfig(nat_share=1.5)
        with pytest.raises(ValueError, match="<= 1"):
            ReachabilityConfig(nat_share=0.7, relay_share=0.5)

    def test_timeouts_positive(self):
        with pytest.raises(ValueError, match="dial_timeout"):
            ReachabilityConfig(dial_timeout=0.0)
        with pytest.raises(ValueError, match="lookup_timeout"):
            NetModelConfig(lookup_timeout=-1.0)

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
        regions = RegionModelConfig(
            names=("a", "b"),
            weights=(0.5, 0.5),
            rtt_matrix=((0.10, 0.20), (0.20, 0.06)),
            jitter=0.0,
        )
        config = NetModelConfig(
            regions=regions, reachability=ReachabilityConfig(**reach)
        )
        return NetModelRuntime(config, seed=1)

    def _net(self, runtime, region, reachability):
        from repro.netmodel.runtime import PeerNet

        return PeerNet(region, reachability, 1.0)

    def test_rtt_reads_the_matrix_symmetrically(self):
        runtime = self._runtime()
        a = self._net(runtime, 0, PUBLIC)
        b = self._net(runtime, 1, PUBLIC)
        assert runtime.rtt(a, b) == pytest.approx(0.20)
        assert runtime.rtt(b, a) == pytest.approx(0.20)
        assert runtime.rtt(a, a) == pytest.approx(0.10)

    def test_relay_endpoint_pays_the_penalty(self):
        runtime = self._runtime(relay_penalty=3.0)
        a = self._net(runtime, 0, PUBLIC)
        r = self._net(runtime, 1, RELAYED)
        assert runtime.rtt(a, r) == pytest.approx(0.60)

    def test_scale_multiplies_every_rtt(self):
        slow = NetModelRuntime(
            NetModelConfig(regions=RegionModelConfig(scale=4.0, jitter=0.0)), seed=1
        )
        fast = NetModelRuntime(
            NetModelConfig(regions=RegionModelConfig(scale=1.0, jitter=0.0)), seed=1
        )
        a = self._net(slow, 0, PUBLIC)
        b = self._net(slow, 1, PUBLIC)
        assert slow.rtt(a, b) == pytest.approx(4.0 * fast.rtt(a, b))

    def test_jitter_multiplies_the_pair_mean(self):
        runtime = self._runtime()
        from repro.netmodel.runtime import PeerNet

        a = PeerNet(0, PUBLIC, 0.8)
        b = PeerNet(0, PUBLIC, 1.2)
        assert runtime.rtt(a, b) == pytest.approx(0.10)  # mean jitter 1.0
        assert runtime.rtt(a, a) == pytest.approx(0.08)

    def test_dial_counts_attempts_and_failures(self):
        runtime = self._runtime()
        public = self._net(runtime, 0, PUBLIC)
        nat = self._net(runtime, 0, NAT)
        relayed = self._net(runtime, 0, RELAYED)
        assert runtime.dial(public)
        assert not runtime.dial(nat)
        assert runtime.dial(relayed)
        stats = runtime.stats
        assert stats.dial_attempts == 3
        assert stats.dial_failures == 1
        assert stats.relay_dials == 1
        assert stats.dial_failure_rate == pytest.approx(1 / 3)


class TestWalkClock:
    def _runtime(self, lookup_timeout=1.0):
        regions = RegionModelConfig(
            names=("a",), weights=(1.0,), rtt_matrix=((0.25,),), jitter=0.0
        )
        config = NetModelConfig(
            regions=regions,
            reachability=ReachabilityConfig(
                nat_share=0.0, relay_share=0.0, dial_timeout=2.0
            ),
            lookup_timeout=lookup_timeout,
        )
        return NetModelRuntime(config, seed=1)

    def test_charges_accumulate_and_expire(self):
        runtime = self._runtime(lookup_timeout=1.0)
        net = runtime.assign_peer()
        clock = runtime.clock(net)
        assert not clock.expired()
        for _ in range(3):
            assert clock.dial(net)
            clock.charge(net)
        assert clock.elapsed == pytest.approx(0.75)
        assert not clock.expired()
        clock.charge(net)
        assert clock.expired()
        assert clock.finish() == pytest.approx(1.0)
        assert runtime.stats.lookups_timed == 1
        assert runtime.stats.lookup_timeouts == 1
        assert runtime.stats.rpc_messages == 4

    def test_failed_dial_burns_the_dial_timeout(self):
        runtime = self._runtime(lookup_timeout=None)
        nat = runtime.assign_peer(behind_nat=True)
        clock = runtime.clock(nat)
        assert not clock.dial(nat)
        assert clock.elapsed == pytest.approx(2.0)
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
        summary = summarize_cell("p1", 40, 0.01, 5)
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
        first = summarize_cell("nat-heavy-crawl", 60, 0.02, 7)
        second = summarize_cell("nat-heavy-crawl", 60, 0.02, 7)
        assert first == second
        block = first["netmodel"]
        assert block["unreachable_share"] > 0.0
        assert block["crawl"]["undercount_vs_discovered"] >= 0.0
        assert set(block["rtt"]) == {"p50", "p90", "p99"}
