"""Runtime side of the network-realism subsystem.

:class:`NetModelRuntime` is built by the network fabric when a
:class:`~repro.netmodel.config.NetModelConfig` is attached to the population.
It draws each peer's network conditions (region, reachability class, jitter)
from its own RNG stream, answers the fabric's dial/RTT questions, and keeps
the :class:`NetModelStats` a scenario reports.

Delays ride the **existing** event heap: the fabric adds the computed RTT to
the delays of events it already schedules (identify delivery etc.), and
iterative walks accrue latency on a :class:`WalkClock` instead of spinning a
second queue — so the ``netmodel=None`` hot path stays a single ``is None``
check and the perf gate holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.netmodel.config import (
    DIAL_TIMEOUT,
    JITTER,
    NAT,
    PUBLIC,
    REGION_WEIGHTS,
    REGIONS,
    RELAYED,
    RTT_MATRIX,
    SEED_SALT,
    NetModelConfig,
)
from repro.simulation.fabric import FabricRuntime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.network import SimPeer
    from repro.simulation.population import PeerProfile


class PeerNet:
    """The drawn network conditions of one peer (or measurement identity)."""

    __slots__ = ("region", "reachability", "jitter")

    def __init__(self, region: int, reachability: str, jitter: float) -> None:
        self.region = region
        self.reachability = reachability
        self.jitter = jitter

    @property
    def dialable(self) -> bool:
        return self.reachability is not NAT


@dataclass
class NetModelStats:
    """What a scenario reports about its network conditions.

    Compact and picklable: the process-parallel sweep runner ships these back
    from worker processes instead of whole scenario results.
    """

    peers: int = 0
    #: ground-truth reachability class and region composition
    class_counts: Dict[str, int] = field(default_factory=dict)
    region_counts: Dict[str, int] = field(default_factory=dict)
    #: dial/RPC attempts against simulated peers (a failed one hit a NAT)
    dial_attempts: int = 0
    dial_failures: int = 0
    relay_dials: int = 0
    #: RPC round trips that accrued latency, and their total simulated time
    rpc_messages: int = 0
    rpc_latency_total: float = 0.0
    #: iterative walks run under a clock, and how many hit the time budget
    lookups_timed: int = 0
    lookup_timeouts: int = 0
    #: per-message RTT samples for the percentile report (first N kept)
    rtt_samples: List[float] = field(default_factory=list)
    max_rtt_samples: int = 10_000

    @property
    def unreachable_share(self) -> float:
        return self.class_counts.get(NAT, 0) / self.peers if self.peers else 0.0

    @property
    def dial_failure_rate(self) -> float:
        return self.dial_failures / self.dial_attempts if self.dial_attempts else 0.0

    @property
    def lookup_timeout_rate(self) -> float:
        return self.lookup_timeouts / self.lookups_timed if self.lookups_timed else 0.0

    @property
    def mean_rtt(self) -> float:
        return self.rpc_latency_total / self.rpc_messages if self.rpc_messages else 0.0


class WalkClock:
    """Accrues the simulated time one iterative walk spends on the wire.

    The content behaviours create one per PROVIDE / FIND_PROVIDERS operation:
    every RPC charges a round trip, every dial to a NATed peer burns the dial
    timeout, and the walk's ``give_up`` hook reads :meth:`expired` so lookups
    are bounded in simulated time, not only in query count.
    """

    __slots__ = ("runtime", "source", "elapsed", "last_rtt")

    def __init__(self, runtime: "NetModelRuntime", source: PeerNet) -> None:
        self.runtime = runtime
        self.source = source
        self.elapsed = 0.0
        #: RTT of the most recent charge(); downstream runtimes (slow-node
        #: penalties) scale it without re-deriving the endpoints
        self.last_rtt = 0.0

    def dial(self, target: PeerNet) -> bool:
        """Attempt a dial; a NATed target burns the timeout and fails."""
        if self.runtime.dial(target):
            return True
        self.elapsed += DIAL_TIMEOUT
        return False

    def charge(self, target: PeerNet) -> float:
        """Charge one RPC round trip against the clock."""
        rtt = self.runtime.rtt(self.source, target)
        self.elapsed += rtt
        self.last_rtt = rtt
        self.runtime.record_rtt(rtt)
        return rtt

    def expired(self) -> bool:
        timeout = self.runtime.config.lookup_timeout
        return timeout is not None and self.elapsed >= timeout

    def finish(self) -> float:
        """Close the walk's books; returns the accrued simulated latency."""
        stats = self.runtime.stats
        stats.lookups_timed += 1
        if self.expired():
            stats.lookup_timeouts += 1
        return self.elapsed


class NetModelRuntime(FabricRuntime):
    """Per-run state: peer assignments, RTT arithmetic, and stats."""

    slot = "net"
    name = "netmodel"

    def __init__(self, config: NetModelConfig, seed: int) -> None:
        self.config = config
        self.rng = random.Random(seed + SEED_SALT)
        self.stats = NetModelStats()
        self.stats.class_counts = {label: 0 for label in (PUBLIC, NAT, RELAYED)}
        self.stats.region_counts = {name: 0 for name in REGIONS}
        #: measurement identities' conditions, keyed by dataset label
        self.identity_net: Dict[str, PeerNet] = {}
        self._cum_weights: List[float] = []
        total = 0.0
        for weight in REGION_WEIGHTS:
            total += weight
            self._cum_weights.append(total)
        #: RTT_MATRIX rows pre-scaled so rtt() is two lookups and a multiply
        self._scaled_matrix = [[value * config.rtt_scale for value in row] for row in RTT_MATRIX]

    # -- assignment (construction time, deterministic in peer order) ---------------

    def _draw_region(self) -> int:
        roll = self.rng.random()
        for index, cumulative in enumerate(self._cum_weights):
            if roll <= cumulative:
                return index
        return len(self._cum_weights) - 1

    def assign_peer(
        self,
        profile: Optional["PeerProfile"] = None,
        *,
        behind_nat: bool = False,
        force_public: bool = False,
    ) -> PeerNet:
        """Draw one peer's conditions (always three draws, so the stream is a
        pure function of the assignment order).

        The fabric passes the peer's ``profile`` (the :class:`FabricRuntime`
        hook form); the keyword form spells the relevant facts out directly.
        Vantage-point-like peers (hydra heads, crawlers) are forced public —
        they run the study and must stay dialable.
        """
        if profile is not None:
            behind_nat = profile.behind_nat
            force_public = profile.is_hydra_head or profile.is_crawler
        reach = self.config.reachability
        region = self._draw_region()
        roll = self.rng.random()
        jitter = self.rng.uniform(1.0 - JITTER, 1.0 + JITTER)
        if force_public:
            reachability = PUBLIC
        elif behind_nat or roll < reach.nat_share:
            reachability = NAT
        elif roll < reach.nat_share + reach.relay_share:
            reachability = RELAYED
        else:
            reachability = PUBLIC
        net = PeerNet(region, reachability, jitter)
        stats = self.stats
        stats.peers += 1
        stats.class_counts[reachability] += 1
        stats.region_counts[REGIONS[region]] += 1
        return net

    def assign_identity(self, label: str) -> PeerNet:
        """Assign a measurement identity (always public; it runs the study)."""
        region = self._draw_region()
        jitter = self.rng.uniform(1.0 - JITTER, 1.0 + JITTER)
        net = PeerNet(region, PUBLIC, jitter)
        self.identity_net[label] = net
        return net

    # -- dial / latency arithmetic ---------------------------------------------------

    def dial(self, target: PeerNet) -> bool:
        """Attempt to dial ``target``; counts the attempt in the stats."""
        stats = self.stats
        stats.dial_attempts += 1
        if target.reachability is NAT:
            stats.dial_failures += 1
            return False
        if target.reachability is RELAYED:
            stats.relay_dials += 1
        return True

    def rtt(self, a: PeerNet, b: PeerNet) -> float:
        """One round trip between two endpoints (jitter and relay included)."""
        base = self._scaled_matrix[a.region][b.region] * 0.5 * (a.jitter + b.jitter)
        if a.reachability is RELAYED or b.reachability is RELAYED:
            base *= self.config.reachability.relay_penalty
        return base

    def identity_rtt(self, label: str, peer: PeerNet) -> float:
        """RTT between a measurement identity and a simulated peer."""
        return self.rtt(self.identity_net[label], peer)

    def record_rtt(self, value: float) -> None:
        stats = self.stats
        stats.rpc_messages += 1
        stats.rpc_latency_total += value
        if len(stats.rtt_samples) < stats.max_rtt_samples:
            stats.rtt_samples.append(value)

    def clock(self, source: PeerNet) -> WalkClock:
        return WalkClock(self, source)

    # -- FabricRuntime hooks ---------------------------------------------------------

    def on_dial(self, peer: "SimPeer") -> bool:
        return self.dial(peer.net)

    def on_rpc(
        self, src: Optional["SimPeer"], dst: "SimPeer", clock: Optional[WalkClock] = None
    ) -> bool:
        # An RPC against a NATed peer fails exactly like a real dial does
        # (the crawler-undercount mechanism); src pays nothing extra here.
        if clock is None:
            return self.dial(dst.net)
        # A failed dial burns the timeout on the walk clock; a successful one
        # is charged a round trip (stashed as clock.last_rtt for runtimes
        # later in the dispatch order).
        if not clock.dial(dst.net):
            return False
        clock.charge(dst.net)
        return True

    def identify_delay(self, label: str, peer: "SimPeer") -> float:
        # Identify is a request/response exchange: one round trip on top of
        # the processing delay (riding the same event heap).
        return self.identity_rtt(label, peer.net)
