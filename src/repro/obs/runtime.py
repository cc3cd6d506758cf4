"""The observability fabric runtime: hook-driven instruments + window clock.

:class:`MetricsRuntime` attaches through the same
:class:`~repro.simulation.fabric.FabricRuntime` protocol as netmodel, faults,
and bandwidth — the dispatch code in ``network.py`` is untouched.  It sits
*first* in ``network.runtimes`` so the veto ladders (NAT dial failures, lost
RPCs, partitions) cannot hide attempts from the observer: every hook here
counts and then returns the behaviour-neutral default, and the runtime keeps
no per-peer state (``slot = ""``) and draws nothing from any RNG — so with
metrics enabled the datasets stay deterministic, and the *attempt* counts
include the vetoed ones.

The windowing clock is a single :class:`~repro.simulation.engine.PeriodicTask`
at the window width (first fire at t=0).  Each tick runs three steps in a
fixed order:

1. flush the accumulated per-event fabric counters and sample sibling-runtime
   cumulative stats (faults retries, bandwidth transfers, netmodel dial
   failures) as *deltas* into the window that just ended — windowed series
   for subsystems that only keep run totals;
2. advance the hub, closing (and flushing) every window strictly before the
   tick time;
3. sample the gauges (online peers, engine events/heap depth) into the window
   that just opened.

The hot fabric hooks (``on_rpc``, ``on_dial``, ...) fire once per simulated
network event, so they do the cheapest thing Python allows — a plain integer
attribute increment — and defer the hub bookkeeping to the once-per-window
flush.  The overhead gate (``benchmarks/bench_overhead.py obs``) bounds this:
metrics enabled must stay within its measured ``TOLERANCE`` of disabled.

Instrument catalog (the README's "Streaming observability" section mirrors
this):

==============================  ======================================================
``fabric.contact``              inbound contact attempts of vantage points
``fabric.connect``              connections established (inbound + outbound)
``fabric.dial``                 vantage points' outbound dial attempts
``fabric.rpc``                  DHT RPC attempts (FIND_NODE/ADD/GET_PROVIDERS)
``fabric.identify``             identify records delivered (initial + pushes)
``meta.role_flip`` etc.         metadata behaviours (behaviors.py)
``content.retrieve_ok/fail``    retrieval outcomes, with latency histograms
``content.provide``             provide walks, with latency histograms
``faults.retries`` etc.         windowed deltas of the fault runtime's totals
``netmodel.dial_failures`` ...  windowed deltas of the netmodel's totals
``bandwidth.transfers`` ...     windowed deltas of the bandwidth totals, plus
                                a per-transfer seconds histogram
``engine.events_processed``     gauge at window open (cumulative)
``engine.heap_depth``           gauge at window open (live pending events)
``fabric.online_peers/servers`` gauges at window open
==============================  ======================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.obs.config import ObsConfig
from repro.obs.hub import MetricsHub, MetricsSummary
from repro.simulation.engine import Engine, PeriodicTask
from repro.simulation.fabric import FabricRuntime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netmodel.runtime import WalkClock
    from repro.simulation.network import SimPeer, SimulatedNetwork


class MetricsRuntime(FabricRuntime):
    """Streaming metrics attached to the fabric's hook points."""

    #: no per-peer state: the assignment pass skips this runtime
    slot = ""
    name = "obs"

    def __init__(self, config: ObsConfig, engine: Engine) -> None:
        self.config = config
        self.engine = engine
        self.hub = MetricsHub(config.window, jsonl_path=config.jsonl_path)
        # Latency histograms share the default simulated-seconds buckets.
        self.hub.register_histogram("content.retrieve_seconds")
        self.hub.register_histogram("content.provide_seconds")
        self.hub.register_histogram("bandwidth.transfer_seconds")
        self.network: Optional["SimulatedNetwork"] = None
        #: last sampled value per sibling cumulative stat (delta cursors)
        self._cursors: Dict[str, int] = {}
        # Per-event tallies, flushed into the just-ended window each tick.
        self._n_contact = 0
        self._n_connect = 0
        self._n_dial = 0
        self._n_rpc = 0
        self._n_identify = 0

    # -- fabric protocol -------------------------------------------------------------

    def install(self, network: "SimulatedNetwork", duration: float) -> None:
        self.network = network
        self.hub.set_horizon(duration)
        PeriodicTask(self.engine, self.hub.window, self._tick, start_delay=0.0)

    def on_contact(self, peer: "SimPeer") -> Optional[float]:
        self._n_contact += 1
        return None

    def note_contact_made(self, peer: "SimPeer") -> None:
        self._n_connect += 1

    def on_dial(self, peer: "SimPeer") -> bool:
        self._n_dial += 1
        return True

    def on_rpc(
        self, src: Optional["SimPeer"], dst: "SimPeer", clock: Optional["WalkClock"] = None
    ) -> bool:
        self._n_rpc += 1
        return True

    def on_identify_delivered(self, label: str, peer: "SimPeer") -> None:
        self._n_identify += 1

    # -- window clock ----------------------------------------------------------------

    def _sibling_totals(self) -> List[Tuple[str, int]]:
        """Cumulative counters of the sibling runtimes worth windowing."""
        network = self.network
        pairs: List[Tuple[str, int]] = []
        if network.netmodel is not None:
            stats = network.netmodel.stats
            pairs.append(("netmodel.dial_failures", stats.dial_failures))
            pairs.append(("netmodel.lookup_timeouts", stats.lookup_timeouts))
        if network.faults is not None:
            stats = network.faults.stats
            pairs.append(("faults.rpc_lost", stats.rpc_lost))
            pairs.append(("faults.crashes", stats.crashes))
            pairs.append(("faults.restarts", stats.restarts))
            pairs.append(("faults.retries", stats.retry_extra))
            pairs.append(("faults.retry_recoveries", stats.retry_recoveries))
        if network.bandwidth is not None:
            stats = network.bandwidth.stats
            pairs.append(("bandwidth.transfers", stats.transfers))
            pairs.append(("bandwidth.bytes", stats.bytes_transferred))
            pairs.append(("bandwidth.transfer_timeouts", stats.transfers_timed_out))
        return pairs

    def _sample_deltas(self, index: int) -> None:
        """Window everything accumulated since the previous tick into window
        ``index`` (the one that just ended): the per-event fabric tallies and
        the deltas of the sibling runtimes' cumulative totals."""
        hub = self.hub
        for name, count in (
            ("fabric.contact", self._n_contact),
            ("fabric.connect", self._n_connect),
            ("fabric.dial", self._n_dial),
            ("fabric.rpc", self._n_rpc),
            ("fabric.identify", self._n_identify),
        ):
            if count:
                hub.inc_at(index, name, count)
        self._n_contact = self._n_connect = self._n_dial = 0
        self._n_rpc = self._n_identify = 0
        for name, total in self._sibling_totals():
            delta = total - self._cursors.get(name, 0)
            if delta:
                hub.inc_at(index, name, delta)
            self._cursors[name] = total

    def _tick(self, now: float) -> None:
        hub = self.hub
        previous = int(now // hub.window) - 1
        if previous >= 0:
            self._sample_deltas(min(previous, hub._n_windows - 1))
        hub.advance(now)
        engine = self.engine
        network = self.network
        hub.gauge("engine.events_processed", now, float(engine.events_processed))
        hub.gauge("engine.heap_depth", now, float(engine.pending()))
        hub.gauge("fabric.online_peers", now, float(network.online_count()))
        hub.gauge("fabric.online_servers", now, float(network.online_server_count()))

    def finalize(self, duration: float) -> MetricsSummary:
        """Close the books at the end of the run: the final sibling deltas go
        into the last window, then the hub closes out the horizon."""
        last = (self.hub._n_windows or 1) - 1
        self._sample_deltas(last)
        return self.hub.finalize()
