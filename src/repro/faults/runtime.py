"""Runtime state of the fault-injection subsystem.

The :class:`FaultRuntime` owns its own RNG stream
(``random.Random(seed + config.seed_salt)``) and every probabilistic gate is
double-checked: a block that is absent **or** zero-rate performs no draws and
schedules no events, so fixed-seed goldens stay byte-identical unless a fault
can actually fire.  Peer assignments happen in peer-index order with a fixed
number of draws per active block, making the stream a pure function of the
assignment order — exactly the discipline :mod:`repro.netmodel` uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.faults.config import FaultConfig
from repro.faults.retry import RetryState
from repro.simulation.fabric import FabricRuntime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netmodel.runtime import WalkClock
    from repro.simulation.network import SimPeer, SimulatedNetwork
    from repro.simulation.population import PeerProfile

#: recovery-delay samples kept per run (enough for any partition we model)
MAX_RECOVERY_SAMPLES = 10_000


class PeerFault:
    """Per-peer fault assignment (attached to ``SimPeer.flt``)."""

    __slots__ = ("side", "slow_factor", "crashable", "awaiting")

    def __init__(self) -> None:
        #: partition side: 0 = majority (with every vantage point), 1 = minority
        self.side = 0
        #: multiplicative RTT factor; 1.0 means the peer answers at full speed
        self.slow_factor = 1.0
        #: whether the crash process targets this peer
        self.crashable = False
        #: the session a minority peer is in at the partition heal (0: none);
        #: its first re-contact clears it, timed only within that session
        self.awaiting = 0


@dataclass
class FaultStats:
    """Counters the resilience report aggregates; picklable for sweep workers."""

    peers: int = 0
    crash_eligible: int = 0
    slow_nodes: int = 0
    partition_minority: int = 0

    # DHT RPC message faults
    rpc_attempts: int = 0
    rpc_lost: int = 0
    rpc_duplicated: int = 0
    rpc_partitioned: int = 0

    # Bitswap exchange faults
    bitswap_attempts: int = 0
    bitswap_lost: int = 0
    bitswap_partitioned: int = 0

    # Slow-node degradation
    slow_charges: int = 0
    slow_penalty_total: float = 0.0

    # Crash/restart process
    crashes: int = 0
    restarts: int = 0
    recovery_republishes: int = 0

    # Partition lifecycle
    partition_severed: int = 0
    heal_time: Optional[float] = None
    recovered_peers: int = 0
    recovery_delays: List[float] = field(default_factory=list)
    recovery_samples_dropped: int = 0
    contacts_blocked: int = 0
    dials_blocked: int = 0

    # Retry resilience
    retry_calls: int = 0
    retry_extra: int = 0
    retry_recoveries: int = 0

    # Stale provider records (crash leftovers observed by retrievers)
    provider_checks: int = 0
    stale_provider_hits: int = 0

    @property
    def rpc_loss_rate(self) -> float:
        """Share of DHT RPCs that a fault (loss or partition) swallowed."""
        if self.rpc_attempts == 0:
            return 0.0
        return (self.rpc_lost + self.rpc_partitioned) / self.rpc_attempts

    @property
    def retry_amplification(self) -> float:
        """Actual attempts per logical RPC under the retry policy."""
        if self.retry_calls == 0:
            return 1.0
        return (self.retry_calls + self.retry_extra) / self.retry_calls

    @property
    def retry_recovery_rate(self) -> float:
        """Share of retried RPCs that a retry eventually saved."""
        if self.retry_extra == 0:
            return 0.0
        return self.retry_recoveries / self.retry_extra

    @property
    def stale_provider_rate(self) -> float:
        """Share of provider-record checks that hit a dead/rotated provider."""
        if self.provider_checks == 0:
            return 0.0
        return self.stale_provider_hits / self.provider_checks

    def note_recovery(self, delay: float) -> None:
        self.recovered_peers += 1
        if len(self.recovery_delays) < MAX_RECOVERY_SAMPLES:
            self.recovery_delays.append(delay)
        else:
            self.recovery_samples_dropped += 1


class FaultRuntime(FabricRuntime):
    """Deterministic fault injector wired into :class:`SimulatedNetwork`."""

    slot = "flt"
    name = "faults"

    def __init__(self, config: FaultConfig, seed: int, engine) -> None:
        self.config = config
        self.engine = engine
        self.rng = random.Random(seed + config.seed_salt)
        self.stats = FaultStats()
        #: ContentBehaviors registers itself here for republish-on-recovery
        self.content = None
        part = config.partition
        if part is not None and part.active:
            self._part_start = part.start
            self._part_end = part.start + part.duration
        else:
            self._part_start = float("inf")
            self._part_end = float("inf")
        self._duration: Optional[float] = None

    # -------------------------------------------------------------- assignment ----

    def assign_peer(
        self, profile: Optional["PeerProfile"] = None, *, exempt: bool = False
    ) -> PeerFault:
        """Draw one peer's fault assignment.

        Called in peer-index order; each active block performs a fixed number
        of draws (crash: 1, partition: 1, slow: 2) so the stream is a pure
        function of the assignment order.  Vantage-point peers (hydra heads,
        crawlers) are ``exempt``: their draws still happen — keeping the
        stream aligned — but never mark them faulty.  The fabric passes the
        peer's ``profile`` (the :class:`FabricRuntime` hook form) and the
        exemption is derived from it.
        """
        if profile is not None:
            exempt = profile.is_hydra_head or profile.is_crawler
        flt = PeerFault()
        self.stats.peers += 1
        crash = self.config.crash
        if crash is not None and crash.active:
            eligible = self.rng.random() < crash.share
            if eligible and not exempt:
                flt.crashable = True
                self.stats.crash_eligible += 1
        part = self.config.partition
        if part is not None and part.active:
            minority = self.rng.random() < part.share
            if minority and not exempt:
                flt.side = 1
                self.stats.partition_minority += 1
        slow = self.config.slow
        if slow is not None and slow.active:
            is_slow = self.rng.random() < slow.share
            factor = self.rng.uniform(slow.min_factor, slow.max_factor)
            if is_slow and not exempt:
                flt.slow_factor = factor
                self.stats.slow_nodes += 1
        return flt

    # ------------------------------------------------------------- installation ----

    def install(self, network: "SimulatedNetwork", duration: float) -> None:
        """Schedule the crash and partition processes for one measurement."""
        self._duration = duration
        crash = self.config.crash
        if crash is not None and crash.active:
            for peer in network.peers:
                flt = peer.flt
                if flt is not None and flt.crashable:
                    self._schedule_crash(network, peer)
        part = self.config.partition
        if part is not None and part.active and self._part_start < duration:
            self.engine.schedule_at(self._part_start, self._partition_start, network)
            if self._part_end < duration:
                self.stats.heal_time = self._part_end
                self.engine.schedule_at(self._part_end, self._partition_heal, network)

    # --------------------------------------------------------------- partitions ----

    def partition_active(self, now: float) -> bool:
        return self._part_start <= now < self._part_end

    def partitioned(
        self, src: Optional[PeerFault], dst: Optional[PeerFault], now: float
    ) -> bool:
        """Whether the split separates ``src`` from ``dst`` right now.

        ``None`` stands for a measurement identity (or the crawler baseline),
        which always sits on the majority side.
        """
        if not self.partition_active(now):
            return False
        src_side = src.side if src is not None else 0
        dst_side = dst.side if dst is not None else 0
        return src_side != dst_side

    def contact_blocked(self, flt: Optional[PeerFault]) -> bool:
        """Whether a peer→identity contact is cut off by the split."""
        if flt is None or flt.side == 0 or not self.partition_active(self.engine.now):
            return False
        self.stats.contacts_blocked += 1
        return True

    def contact_retry_delay(self) -> float:
        """Delay until a blocked contact retries: just past the heal, spread
        so the minority's reconnects do not stampede the vantage points."""
        part = self.config.partition
        spread = part.recovery_spread if part is not None else 60.0
        return (self._part_end - self.engine.now) + self.rng.uniform(0.0, spread)

    def dial_blocked(self, flt: Optional[PeerFault]) -> bool:
        """Whether an identity's outbound dial is cut off by the split."""
        if flt is None or flt.side == 0 or not self.partition_active(self.engine.now):
            return False
        self.stats.dials_blocked += 1
        return True

    def _partition_start(self, network: "SimulatedNetwork") -> None:
        for peer in network.online_peers():
            flt = peer.flt
            if flt is None or flt.side == 0:
                continue
            self.stats.partition_severed += network.sever_connections(peer)

    def _partition_heal(self, network: "SimulatedNetwork") -> None:
        part = self.config.partition
        for peer in network.online_peers():
            flt = peer.flt
            if flt is None or flt.side == 0:
                continue
            flt.awaiting = peer.sessions_started
            for identity in network.identities:
                delay = self.rng.uniform(0.0, part.recovery_spread)
                self.engine.schedule(delay, network._attempt_contact, peer, identity)

    # ------------------------------------------------------------------ crashes ----

    def _schedule_crash(self, network: "SimulatedNetwork", peer: "SimPeer") -> None:
        crash = self.config.crash
        delay = self.rng.expovariate(1.0 / crash.mtbf)
        if self._duration is not None and self.engine.now + delay > self._duration:
            return
        self.engine.schedule(delay, self._crash, network, peer)

    def _crash(self, network: "SimulatedNetwork", peer: "SimPeer") -> None:
        # Renewal first: the next crash of this peer is drawn now, whether or
        # not this one lands, keeping the stream independent of peer state.
        self._schedule_crash(network, peer)
        if not peer.online:
            return
        self.stats.crashes += 1
        network.crash_peer(peer)
        crash = self.config.crash
        delay = self.rng.expovariate(1.0 / crash.restart_mean)
        if self._duration is not None and self.engine.now + delay > self._duration:
            return
        self.engine.schedule(delay, self._restart, network, peer)

    def _restart(self, network: "SimulatedNetwork", peer: "SimPeer") -> None:
        if peer.online:
            return
        network._session_start(peer)
        if not peer.online:
            # max_sessions exhausted: the peer stays down for good.
            return
        self.stats.restarts += 1
        if self.config.republish_on_recovery and self.content is not None:
            self.content.on_peer_recovered(peer)

    # ---------------------------------------------------------------- messages ----

    def deliver(self, src: Optional[PeerFault], dst: Optional[PeerFault]) -> bool:
        """Whether one DHT RPC makes it across the wire (both directions)."""
        self.stats.rpc_attempts += 1
        if self.partitioned(src, dst, self.engine.now):
            self.stats.rpc_partitioned += 1
            return False
        links = self.config.links
        if links is not None and links.active:
            if links.loss_rate > 0.0 and self.rng.random() < links.loss_rate:
                self.stats.rpc_lost += 1
                return False
            if links.duplicate_rate > 0.0 and self.rng.random() < links.duplicate_rate:
                # The duplicate reply is idempotent for every handler we
                # model; only the bookkeeping notices it.
                self.stats.rpc_duplicated += 1
        return True

    def bitswap_deliver(self, src: Optional[PeerFault], dst: Optional[PeerFault]) -> bool:
        """Whether one Bitswap want/block exchange survives the wire."""
        self.stats.bitswap_attempts += 1
        if self.partitioned(src, dst, self.engine.now):
            self.stats.bitswap_partitioned += 1
            return False
        links = self.config.links
        if links is not None and links.loss_rate > 0.0:
            if self.rng.random() < links.loss_rate:
                self.stats.bitswap_lost += 1
                return False
        return True

    def slow_penalty(self, flt: Optional[PeerFault], rtt: float) -> float:
        """Extra walk-clock seconds a slow responder costs on top of ``rtt``."""
        if flt is None or flt.slow_factor <= 1.0 or rtt <= 0.0:
            return 0.0
        penalty = rtt * (flt.slow_factor - 1.0)
        self.stats.slow_charges += 1
        self.stats.slow_penalty_total += penalty
        return penalty

    # ---------------------------------------------------------------- resilience ----

    def retry_state(self, clock=None, tracer=None) -> Optional[RetryState]:
        """A fresh per-walk retry executor (None when no policy is configured).

        ``tracer`` (a :class:`~repro.obs.spans.SpanTracer` with an open
        operation) makes charged backoff and retry attempts visible as span
        leaves; it never changes what the executor does.
        """
        if self.config.retry is None:
            return None
        return RetryState(
            self.config.retry, self.rng, clock=clock, stats=self.stats, tracer=tracer
        )

    # -- FabricRuntime hooks ---------------------------------------------------------

    def on_contact(self, peer: "SimPeer") -> Optional[float]:
        # A partitioned peer retries just past the scheduled heal; the delay
        # draw happens only when the contact is actually blocked, keeping the
        # fault stream untouched on clean contacts.
        if self.contact_blocked(peer.flt):
            return self.contact_retry_delay()
        return None

    def note_contact_made(self, peer: "SimPeer") -> None:
        # The first contact after the heal is the peer's recovery, but only
        # in the session it was in at the heal: a peer that went offline in
        # between reconnects because it came back, not because the split healed.
        flt = peer.flt
        if flt is None or not flt.awaiting:
            return
        if flt.awaiting == peer.sessions_started:
            self.stats.note_recovery(max(0.0, self.engine.now - self._part_end))
        flt.awaiting = 0

    def on_dial(self, peer: "SimPeer") -> bool:
        return not self.dial_blocked(peer.flt)

    def on_rpc(
        self, src: Optional["SimPeer"], dst: "SimPeer", clock: Optional["WalkClock"] = None
    ) -> bool:
        if clock is not None:
            # A slow responder burns its RTT spike on the walk clock whether
            # or not the exchange then survives the wire.
            clock.elapsed += self.slow_penalty(dst.flt, clock.last_rtt)
        return self.deliver(src.flt if src is not None else None, dst.flt)
