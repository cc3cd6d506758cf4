"""Runtime side of the data-plane bandwidth model.

:class:`BandwidthRuntime` is built by the network fabric when a
:class:`~repro.bandwidth.config.BandwidthConfig` is attached to the
population.  It draws each peer's access class from its own salted RNG
stream (one draw per peer, in peer-index order — the same stream discipline
:mod:`repro.netmodel` and :mod:`repro.faults` use), charges control traffic
against walk clocks and the event heap through the
:class:`~repro.simulation.fabric.FabricRuntime` hooks, and serializes Bitswap
transfers through per-peer FIFO transmit queues.

The queue model is a per-link ``busy_until`` frontier: a transfer starting at
``now`` waits ``max(0, busy_until - now)`` (queueing delay), then occupies the
link for ``size / rate`` (serialization delay).  Events are processed in
simulated-time order, so the scalar frontier *is* a FIFO queue — no second
event queue is spun up, and the ``bandwidth=None`` hot path stays empty.

Transfers are planned, then committed: the content behaviours ask for a
:class:`TransferPlan` first (a timeout-bound retriever abandons a hopeless
fetch before occupying anyone's uplink), run the Bitswap exchange, and commit
the plan only when a block actually came back — so failed fetches never
charge the queues.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.bandwidth.config import (
    CLASSES,
    IDENTIFY_BYTES,
    RPC_REQUEST_BYTES,
    RPC_RESPONSE_BYTES,
    SEED_SALT,
    TRANSFER_TIMEOUT,
    BandwidthConfig,
)
from repro.simulation.fabric import FabricRuntime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netmodel.runtime import WalkClock
    from repro.simulation.network import SimPeer
    from repro.simulation.population import PeerProfile


class PeerLink:
    """The drawn link of one peer: rates plus the FIFO queue frontiers."""

    __slots__ = (
        "cls",
        "up",
        "down",
        "up_busy_until",
        "down_busy_until",
        "up_busy_seconds",
    )

    def __init__(self, cls: int, up: float, down: float) -> None:
        #: index into :data:`~repro.bandwidth.config.CLASSES`
        self.cls = cls
        self.up = up
        self.down = down
        #: FIFO transmit/receive queue frontiers (simulated seconds)
        self.up_busy_until = 0.0
        self.down_busy_until = 0.0
        #: total seconds the uplink spent serializing (utilization accounting)
        self.up_busy_seconds = 0.0


@dataclass
class TransferPlan:
    """One planned Bitswap transfer, split into its latency components."""

    src: PeerLink
    dst: PeerLink
    size: int
    rtt: float
    queueing: float
    serialization: float

    @property
    def total(self) -> float:
        return self.rtt + self.queueing + self.serialization


@dataclass
class BandwidthStats:
    """What a scenario reports about its data plane.

    Compact and picklable: the process-parallel sweep runner ships these back
    from worker processes instead of whole scenario results.
    """

    peers: int = 0
    #: ground-truth access-class composition
    class_counts: Dict[str, int] = field(default_factory=dict)

    #: control plane: DHT RPC payloads and identify records
    control_rpcs: int = 0
    control_bytes: int = 0
    identify_payloads: int = 0
    identify_bytes: int = 0

    #: data plane: committed Bitswap transfers
    transfers: int = 0
    transfers_timed_out: int = 0
    bytes_transferred: int = 0
    rtt_total: float = 0.0
    serialization_total: float = 0.0
    queueing_total: float = 0.0

    #: per-transfer samples for the percentile report (first N kept)
    transfer_sizes: List[int] = field(default_factory=list)
    transfer_rtts: List[float] = field(default_factory=list)
    transfer_serializations: List[float] = field(default_factory=list)
    transfer_queueings: List[float] = field(default_factory=list)
    max_transfer_samples: int = 10_000

    #: per-node uplink utilization (busy share of the window), recorded at
    #: finalize for every node whose uplink carried any transfer
    utilization_samples: List[float] = field(default_factory=list)
    max_utilization_samples: int = 10_000

    @property
    def transfer_attempts(self) -> int:
        return self.transfers + self.transfers_timed_out

    @property
    def timeout_rate(self) -> float:
        attempts = self.transfer_attempts
        return self.transfers_timed_out / attempts if attempts else 0.0

    @property
    def latency_total(self) -> float:
        return self.rtt_total + self.serialization_total + self.queueing_total

    @property
    def queueing_share(self) -> float:
        """Queueing delay's share of total transfer latency."""
        total = self.latency_total
        return self.queueing_total / total if total else 0.0

    @property
    def mean_transfer_time(self) -> float:
        return self.latency_total / self.transfers if self.transfers else 0.0


#: the class exempt (vantage-point-like) peers are forced into: the fastest
#: uplink, so the instruments never bottleneck the experiment
FASTEST = max(range(len(CLASSES)), key=lambda i: CLASSES[i].up)


class BandwidthRuntime(FabricRuntime):
    """Per-run state: link assignments, queue frontiers, and stats."""

    slot = "link"
    name = "bandwidth"

    def __init__(self, config: BandwidthConfig, seed: int) -> None:
        self.config = config
        self.rng = random.Random(seed + SEED_SALT)
        self.stats = BandwidthStats()
        self.stats.class_counts = {cls.name: 0 for cls in CLASSES}
        self._cum_shares: List[float] = []
        total = 0.0
        for cls in CLASSES:
            total += cls.share
            self._cum_shares.append(total)
        self._links: List[PeerLink] = []

    # -- assignment (construction time, deterministic in peer order) ---------------

    def _draw_class(self) -> int:
        roll = self.rng.random()
        for index, cumulative in enumerate(self._cum_shares):
            if roll <= cumulative:
                return index
        return len(self._cum_shares) - 1

    def assign_peer(
        self, profile: Optional["PeerProfile"] = None, *, exempt: bool = False
    ) -> PeerLink:
        """Draw one peer's link (always one draw, so the stream is a pure
        function of the assignment order).

        ``exempt`` peers (hydra heads, crawlers — derived from ``profile`` in
        the :class:`FabricRuntime` hook form) still draw — keeping the stream
        aligned — but are forced into the fastest class.
        """
        if profile is not None:
            exempt = profile.is_hydra_head or profile.is_crawler
        index = self._draw_class()
        if exempt:
            index = FASTEST
        cls = CLASSES[index]
        link = PeerLink(index, up=cls.up * self.config.uplink_scale, down=cls.down)
        self.stats.peers += 1
        self.stats.class_counts[cls.name] += 1
        self._links.append(link)
        return link

    # -- control plane ---------------------------------------------------------------

    def on_rpc(
        self, src: Optional["SimPeer"], dst: "SimPeer", clock: Optional["WalkClock"] = None
    ) -> bool:
        self.stats.control_rpcs += 1
        self.stats.control_bytes += RPC_REQUEST_BYTES + RPC_RESPONSE_BYTES
        if clock is None:
            # The bytes are counted; without a walk clock no simulated time
            # can be charged anywhere.
            return True
        # The reply serializes on the responder's uplink, the request on the
        # querier's (a vantage point / crawler source pays nothing).  Control
        # messages are small enough to skip the queue frontier.
        elapsed = RPC_RESPONSE_BYTES / dst.link.up
        if src is not None and src.link is not None:
            elapsed += RPC_REQUEST_BYTES / src.link.up
        clock.elapsed += elapsed
        return True

    def identify_delay(self, label: str, peer: "SimPeer") -> float:
        """Serialization of the identify record on the peer's uplink."""
        self.stats.identify_payloads += 1
        self.stats.identify_bytes += IDENTIFY_BYTES
        return IDENTIFY_BYTES / peer.link.up

    # -- data plane ------------------------------------------------------------------

    def plan_transfer(
        self, now: float, src: PeerLink, dst: PeerLink, size: int, rtt: float = 0.0
    ) -> Optional[TransferPlan]:
        """Plan one block transfer from ``src`` (provider) to ``dst``.

        Returns ``None`` — and counts a timeout — when the would-be latency
        (RTT + queueing behind both frontiers + serialization at the
        bottleneck rate) exceeds :data:`TRANSFER_TIMEOUT`: the retriever abandons
        the fetch without occupying anyone's link.
        """
        rate = min(src.up, dst.down)
        serialization = size / rate
        start = max(now, src.up_busy_until, dst.down_busy_until)
        plan = TransferPlan(
            src=src,
            dst=dst,
            size=size,
            rtt=rtt,
            queueing=start - now,
            serialization=serialization,
        )
        if plan.total > TRANSFER_TIMEOUT:
            self.stats.transfers_timed_out += 1
            return None
        return plan

    def commit_transfer(self, now: float, plan: TransferPlan) -> float:
        """The block came back: occupy both links and record the sample.

        Returns the transfer's total latency (RTT + queueing + serialization).
        """
        end = now + plan.queueing + plan.serialization
        plan.src.up_busy_until = end
        plan.src.up_busy_seconds += plan.serialization
        plan.dst.down_busy_until = end
        stats = self.stats
        stats.transfers += 1
        stats.bytes_transferred += plan.size
        stats.rtt_total += plan.rtt
        stats.serialization_total += plan.serialization
        stats.queueing_total += plan.queueing
        if len(stats.transfer_sizes) < stats.max_transfer_samples:
            stats.transfer_sizes.append(plan.size)
            stats.transfer_rtts.append(plan.rtt)
            stats.transfer_serializations.append(plan.serialization)
            stats.transfer_queueings.append(plan.queueing)
        return plan.total

    # -- finalize --------------------------------------------------------------------

    def finalize(self, duration: float) -> BandwidthStats:
        """Close the books: per-node uplink utilization over the window."""
        stats = self.stats
        for link in self._links:
            if link.up_busy_seconds <= 0.0:
                continue
            sample = min(1.0, link.up_busy_seconds / duration)
            if len(stats.utilization_samples) < stats.max_utilization_samples:
                stats.utilization_samples.append(sample)
        return stats
