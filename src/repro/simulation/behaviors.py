"""Meta-data behaviours of simulated peers.

Section IV.B of the paper observes that announced meta data is *mostly*
constant, but not entirely:

* go-ipfs agents upgrade, downgrade, or change their commit (Table III),
* peers flap their ``/ipfs/kad/1.0.0`` announcement, i.e. switch between
  DHT-Server and DHT-Client roles (2'481 peers, 68'396 changes), and
* peers flap ``/libp2p/autonat/1.0.0`` (3'603 peers, 86'651 changes).

This module schedules those behaviours on the event engine and pushes the
resulting identify updates through the network fabric so the measurement nodes
observe them the same way the paper's clients did (identify-push / refresh on
an open connection).

:class:`ContentBehaviors` schedules the other traffic class the paper's
vantage points sit in the middle of: content routing.  Publishers store
provider records for Zipf-popular items on the servers closest to each key
(and republish them), retrievers resolve the records and fetch the block from
a live provider over Bitswap — all against the same churning fabric, which is
what makes record liveness a measurable property.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Set

from repro.kademlia.dht import iterative_find_providers, iterative_provide
from repro.libp2p.agent import parse_goipfs_agent
from repro.simulation.agents import AgentCatalog
from repro.simulation.config import BehaviorConfig
from repro.simulation.content import (
    ContentRoutingConfig,
    ContentRoutingStats,
    ZipfCatalog,
)
from repro.simulation.engine import Engine, PeriodicTask
from repro.simulation.network import SimPeer, SimulatedNetwork
from repro.simulation.population import VersionBehavior


class MetadataBehaviors:
    """Schedules version changes, role flips, and autonat flapping."""

    def __init__(
        self,
        engine: Engine,
        network: SimulatedNetwork,
        rng: Optional[random.Random] = None,
        config: Optional[BehaviorConfig] = None,
    ) -> None:
        self.engine = engine
        self.network = network
        self.rng = rng or random.Random(network.population.config.seed + 2)
        self.config = config or BehaviorConfig()
        self.catalog = AgentCatalog(self.rng)
        self.version_changes_applied = 0
        self.role_flips_applied = 0
        self.autonat_flips_applied = 0

    # -- wiring ---------------------------------------------------------------------

    def schedule_all(self, duration: float) -> None:
        """Schedule behaviours for every peer in the network."""
        for peer in self.network.peers:
            profile = peer.profile
            if profile.version_behavior is not VersionBehavior.STABLE:
                low, high = self.config.version_change_window
                at = self.rng.uniform(low * duration, high * duration)
                self.engine.schedule_drop(at, self._apply_version_change, peer)
            if profile.flips_role:
                self._schedule_role_flip(peer, duration)
            if profile.flips_autonat:
                self._schedule_autonat_flip(peer, duration)

    # -- version changes ---------------------------------------------------------------

    def _apply_version_change(self, peer: SimPeer) -> None:
        parsed = parse_goipfs_agent(peer.agent)
        if parsed is None:
            return
        behavior = peer.profile.version_behavior
        if behavior is VersionBehavior.UPGRADE:
            release = self.catalog.upgraded_release(parsed.release_string)
        elif behavior is VersionBehavior.DOWNGRADE:
            release = self.catalog.downgraded_release(parsed.release_string)
        else:
            release = parsed.release_string
        if parsed.dirty:
            stay_dirty = self.rng.random() < self.config.keep_dirty_probability
        else:
            stay_dirty = self.rng.random() > self.config.keep_main_probability
        new_agent = self.catalog.make_goipfs_agent(
            release=release, dirty_probability=1.0 if stay_dirty else 0.0
        )
        if new_agent == peer.agent:
            return
        peer.agent = new_agent
        self.version_changes_applied += 1
        if self.network.obs is not None:
            self.network.obs.hub.inc("meta.version_change", self.engine.now)
        self.network.push_identify(peer)

    # -- role flips -----------------------------------------------------------------------

    def _schedule_role_flip(self, peer: SimPeer, duration: float) -> None:
        delay = self.rng.expovariate(1.0 / self.config.role_flip_interval)
        if self.engine.now + delay > duration:
            return
        self.engine.schedule_drop(delay, self._apply_role_flip, peer, duration)

    def _apply_role_flip(self, peer: SimPeer, duration: float) -> None:
        peer.kad_announced = not peer.kad_announced
        self.role_flips_applied += 1
        if self.network.obs is not None:
            self.network.obs.hub.inc("meta.role_flip", self.engine.now)
        self.network.push_identify(peer)
        self._schedule_role_flip(peer, duration)

    # -- autonat flips ------------------------------------------------------------------------

    def _schedule_autonat_flip(self, peer: SimPeer, duration: float) -> None:
        delay = self.rng.expovariate(1.0 / self.config.autonat_flip_interval)
        if self.engine.now + delay > duration:
            return
        self.engine.schedule_drop(delay, self._apply_autonat_flip, peer, duration)

    def _apply_autonat_flip(self, peer: SimPeer, duration: float) -> None:
        peer.autonat_announced = not peer.autonat_announced
        self.autonat_flips_applied += 1
        if self.network.obs is not None:
            self.network.obs.hub.inc("meta.autonat_flip", self.engine.now)
        self.network.push_identify(peer)
        self._schedule_autonat_flip(peer, duration)


class ContentBehaviors:
    """Schedules the publish/retrieve content-routing workload."""

    def __init__(
        self,
        engine: Engine,
        network: SimulatedNetwork,
        rng: Optional[random.Random] = None,
        config: Optional[ContentRoutingConfig] = None,
    ) -> None:
        self.engine = engine
        self.network = network
        self.rng = rng or random.Random(network.population.config.seed + 3)
        self.config = config or ContentRoutingConfig()
        self.catalog = ZipfCatalog(
            self.config.n_items,
            self.config.zipf_exponent,
            size_classes=self.config.block_size_classes,
            size_seed=self.config.block_size_seed,
        )
        self.stats = ContentRoutingStats()
        self._duration = 0.0
        #: items each publisher has provided, kept only under fault injection
        #: so crash recovery knows what to republish (peer_index -> items)
        self._published: Dict[int, Set[int]] = {}
        if network.faults is not None:
            # Republish-on-recovery needs a way back into the workload.
            network.faults.content = self

    # -- wiring ---------------------------------------------------------------------

    def schedule_all(self, duration: float) -> None:
        """Pick publishers/retrievers and schedule their first operations.

        Role draws happen for every general-population peer in index order,
        so the workload is a pure function of the content RNG seed.
        """
        self._duration = duration
        config = self.config
        for peer in self.network.peers:
            profile = peer.profile
            if profile.is_crawler or profile.is_hydra_head:
                continue
            is_publisher = self.rng.random() < config.publisher_share
            is_retriever = self.rng.random() < config.retriever_share
            if is_publisher:
                self.stats.publishers += 1
                delay = self.rng.uniform(0.0, min(config.publish_interval, duration))
                self.engine.schedule_drop(delay, self._publish, peer)
            if is_retriever:
                self.stats.retrievers += 1
                delay = self.rng.uniform(0.0, min(config.retrieve_interval, duration))
                self.engine.schedule_drop(delay, self._retrieve, peer)
        PeriodicTask(self.engine, config.sweep_interval(), self._sweep)

    def finalize(self, now: float) -> ContentRoutingStats:
        """Close the books: count the records still live on the fabric."""
        self.stats.records_live_at_end = self.network.provider_record_count(now)
        return self.stats

    # -- shared helpers -------------------------------------------------------------

    def _schedule_next(self, peer: SimPeer, interval: float, callback) -> None:
        delay = self.rng.expovariate(1.0 / interval)
        if self.engine.now + delay > self._duration:
            return
        self.engine.schedule_drop(delay, callback, peer)

    def _seeds(self, peer: SimPeer, key: int):
        """Lookup entry points: bootstrap servers plus own table neighbours."""
        seeds = list(self.network.bootstrap_peers(self.config.bootstrap_count))
        table = peer.routing_table
        if table is not None:
            seeds.extend(table.closest_peers(key, self.config.bootstrap_count))
        return seeds

    def _lookup_latency(self, hops: int) -> float:
        low, high = self.config.per_hop_latency
        return sum(self.rng.uniform(low, high) for _ in range(hops))

    def _sweep(self, now: float) -> None:
        self.stats.records_expired += self.network.sweep_provider_stores(now)

    # -- publishing -----------------------------------------------------------------

    def _publish(self, peer: SimPeer) -> None:
        self._schedule_next(peer, self.config.publish_interval, self._publish)
        if not peer.online:
            return
        item = self.catalog.sample(self.rng)
        self._do_provide(peer, item, republish=False)

    def _do_provide(self, peer: SimPeer, item: int, republish: bool) -> None:
        config = self.config
        network = self.network
        faults = network.faults
        key = self.catalog.key(item)
        clock = network.netmodel_clock(peer)
        tracer = network.tracer
        if tracer is not None:
            tracer.begin(
                "content.republish" if republish else "content.provide",
                peer.profile.peer_index,
            )
            tracer.push("walk", "walk")
        # The RPCs name the source peer so partitions and link loss apply to
        # this walk.  Under a netmodel the walk also accrues real simulated
        # time on the clock (RTTs and failed-dial timeouts) and gives up once
        # the budget is spent.
        result = iterative_provide(
            key,
            network.timed_query_fn(clock, src=peer),
            network.timed_add_provider_fn(clock, config.provider_ttl, src=peer),
            peer.current_pid,
            self._seeds(peer, key),
            replication=config.replication,
            max_queries=config.max_queries,
            give_up=None if clock is None else clock.expired,
            retry=None if faults is None else faults.retry_state(clock, tracer=tracer),
            trace=tracer,
        )
        if clock is None:
            latency = self._lookup_latency(result.hops)
            if tracer is not None:
                # The idealised fabric draws the walk latency synthetically;
                # one leaf carries it so per-trace attribution still sums to
                # the measured latency.
                tracer.leaf("lookup", "walk", latency, hops=result.hops)
                tracer.pop(latency)
        else:
            latency = clock.finish()
            if tracer is not None:
                tracer.pop(latency, hops=result.hops)
        if faults is not None:
            self._published.setdefault(peer.profile.peer_index, set()).add(item)
        peer.ensure_bitswap().add_block(self.catalog.cid(item), self.catalog.block(item))
        stats = self.stats
        if republish:
            stats.republishes += 1
        else:
            stats.provides += 1
            if result.succeeded():
                stats.provide_successes += 1
            stats.provide_hops.append(result.hops)
            stats.provide_latencies.append(latency)
        stats.records_stored += len(result.stored_on)
        if network.obs is not None:
            now = self.engine.now
            network.obs.hub.inc(
                "content.republish" if republish else "content.provide", now
            )
            if not republish:
                network.obs.hub.observe("content.provide_seconds", now, latency)
        if tracer is not None:
            tracer.finish_root(
                latency,
                failed=not result.succeeded(),
                timed_out=clock is not None and clock.expired(),
                hops=result.hops,
                stored=len(result.stored_on),
            )
        if config.republish_interval is not None:
            if self.engine.now + config.republish_interval <= self._duration:
                self.engine.schedule_drop(
                    config.republish_interval, self._republish, peer, item
                )

    def _republish(self, peer: SimPeer, item: int) -> None:
        # An offline node cannot reprovide; its records now race the TTL.
        if peer.online:
            self._do_provide(peer, item, republish=True)

    def on_peer_recovered(self, peer: SimPeer) -> None:
        """Republish a crashed publisher's items shortly after its restart.

        Called by the fault runtime when ``republish_on_recovery`` is set.
        Delays come from the fault stream so the honest workload RNG is
        untouched.
        """
        items = self._published.get(peer.profile.peer_index)
        if not items:
            return
        faults = self.network.faults
        for item in sorted(items):
            delay = faults.rng.uniform(1.0, 60.0)
            if self.engine.now + delay <= self._duration:
                faults.stats.recovery_republishes += 1
                self.engine.schedule_drop(delay, self._republish, peer, item)

    # -- retrieval ------------------------------------------------------------------

    def _retrieve(self, peer: SimPeer) -> None:
        self._schedule_next(peer, self.config.retrieve_interval, self._retrieve)
        if not peer.online:
            return
        config = self.config
        network = self.network
        item = self.catalog.sample(self.rng)
        cid = self.catalog.cid(item)
        bitswap = peer.ensure_bitswap()
        if bitswap.has_block(cid):
            self.stats.retrievals_local += 1
            return
        key = self.catalog.key(item)
        faults = network.faults
        clock = network.netmodel_clock(peer)
        tracer = network.tracer
        if tracer is not None:
            tracer.begin("content.retrieve", peer.profile.peer_index)
            tracer.push("walk", "walk")
        result = iterative_find_providers(
            key,
            network.timed_get_providers_fn(clock, src=peer),
            self._seeds(peer, key),
            self_id=peer.current_pid,
            max_queries=config.max_queries,
            max_providers=config.max_providers,
            give_up=None if clock is None else clock.expired,
            retry=None if faults is None else faults.retry_state(clock, tracer=tracer),
            trace=tracer,
        )
        if clock is None:
            latency = self._lookup_latency(result.hops)
            if tracer is not None:
                # Synthetic walk latency on the idealised fabric: one leaf
                # carries it so per-trace attribution still sums.
                tracer.leaf("lookup", "walk", latency, hops=result.hops)
                tracer.pop(latency)
        else:
            latency = clock.finish()
            if tracer is not None:
                tracer.pop(latency, hops=result.hops)
        success = False
        for pid in result.providers:
            provider = network.peers_by_pid.get(pid)
            if provider is None or provider is peer:
                continue
            if faults is not None:
                faults.stats.provider_checks += 1
            # A stale record: the provider left or rotated its PID since.
            if not provider.online or provider.current_pid != pid:
                if faults is not None:
                    # Crash leftovers and churn both strand records; the
                    # resilience report tracks how often retrievers hit them.
                    faults.stats.stale_provider_hits += 1
                continue
            if provider.bitswap is None:
                continue
            if network.netmodel is not None and not network.netmodel.dial(provider.net):
                # A NATed provider holds the block but cannot be fetched from;
                # the failed dial still costs the same timeout a walk pays.
                dial_timeout = network.netmodel.config.reachability.dial_timeout
                latency += dial_timeout
                if tracer is not None:
                    tracer.leaf("provider_dial", "dial", dial_timeout)
                continue
            bandwidth = network.bandwidth
            plan = None
            if bandwidth is not None:
                # Plan the transfer *before* the Bitswap exchange: a fetch
                # abandoned for a hopeless queue must not end with the block
                # in the local store anyway.
                rtt = 0.0
                if network.netmodel is not None:
                    rtt = network.netmodel.rtt(peer.net, provider.net)
                plan = bandwidth.plan_transfer(
                    self.engine.now,
                    provider.link,
                    peer.link,
                    self.catalog.size(item),
                    rtt=rtt,
                )
                if plan is None:
                    # The provider's uplink (or our downlink) is saturated past
                    # the timeout: give up on this provider and try the next.
                    latency += bandwidth.config.transfer_timeout
                    if tracer is not None:
                        tracer.leaf(
                            "transfer_wait",
                            "queue",
                            bandwidth.config.transfer_timeout,
                            outcome="timeout",
                        )
                    continue
            if faults is None:
                block = bitswap.fetch_from(peer.current_pid, pid, provider.bitswap, cid)
            else:
                block = bitswap.fetch_from(
                    peer.current_pid,
                    pid,
                    provider.bitswap,
                    cid,
                    deliver=lambda p=provider: faults.bitswap_deliver(peer.flt, p.flt),
                    retry=faults.retry_state(),
                )
            if block is None:
                if tracer is not None:
                    # The exchange died on the fault gate; no simulated time
                    # was charged, the leaf just records the failed fetch.
                    tracer.leaf("bitswap", "transfer", 0.0, outcome="lost")
                continue
            success = True
            if plan is not None:
                # Real data plane: RTT + queueing + serialization, and the
                # links stay busy for everyone behind us.
                transfer_seconds = bandwidth.commit_transfer(self.engine.now, plan)
                latency += transfer_seconds
                if tracer is not None:
                    tracer.transfer(
                        plan.rtt, plan.queueing, plan.serialization,
                        transfer_seconds, plan.size,
                    )
                if network.obs is not None:
                    network.obs.hub.observe(
                        "bandwidth.transfer_seconds", self.engine.now, transfer_seconds
                    )
            else:
                fetch_seconds = self.rng.uniform(*config.transfer_latency)
                latency += fetch_seconds
                rtt_seconds = 0.0
                if network.netmodel is not None:
                    # The Bitswap exchange pays its round trip to the provider.
                    rtt_seconds = network.netmodel.rtt(peer.net, provider.net)
                    latency += rtt_seconds
                if tracer is not None:
                    tracer.push("transfer", "transfer")
                    tracer.leaf("exchange", "transfer", fetch_seconds)
                    if rtt_seconds:
                        tracer.leaf("rtt", "transfer", rtt_seconds)
                    tracer.pop(fetch_seconds + rtt_seconds)
            break
        stats = self.stats
        stats.retrievals += 1
        if success:
            stats.retrieval_successes += 1
        if self.engine.now <= self._duration / 2.0:
            stats.first_half_retrievals += 1
            if success:
                stats.first_half_successes += 1
        else:
            stats.second_half_retrievals += 1
            if success:
                stats.second_half_successes += 1
        stats.retrieve_hops.append(result.hops)
        stats.retrieve_latencies.append(latency)
        if network.obs is not None:
            now = self.engine.now
            network.obs.hub.inc(
                "content.retrieve_ok" if success else "content.retrieve_fail", now
            )
            network.obs.hub.observe("content.retrieve_seconds", now, latency)
        if tracer is not None:
            tracer.finish_root(
                latency,
                failed=not success,
                timed_out=clock is not None and clock.expired(),
                hops=result.hops,
                providers=len(result.providers),
            )
