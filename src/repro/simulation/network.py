"""The simulated IPFS network fabric.

This module wires the synthetic population to the measurement identities
(go-ipfs node, hydra heads) on top of the discrete-event engine:

* **sessions** — peers come online and go offline according to their ground
  truth session model; one-time peers appear once, spread over the whole
  measurement window.
* **contacts** — while online, a peer eventually discovers each measurement
  identity (faster when the identity is a DHT-Server, fastest when the peer
  sits in the identity's Kademlia neighbourhood) and opens a connection.
* **connection lifetime** — a connection ends because the remote trims it
  (default go-ipfs watermarks at the remote), the remote goes offline, our own
  connection manager trims it, a short protocol exchange finishes (crawlers),
  or the measurement ends.  These close reasons are exactly the churn sources
  the paper discusses in Section IV.A.
* **identify** — after connecting, peers exchange identify records (agent,
  protocols, addresses); meta-data behaviours push updates later.
* **DHT queries** — online DHT-Servers answer FIND_NODE queries from their
  routing tables, which is what the active crawler baseline walks.
* **malicious response paths** — a peer carrying an attacker behaviour
  (:mod:`repro.adversary`) intercepts the three DHT RPCs before the honest
  implementation runs: poisoned or dropped FIND_NODE / GET_PROVIDERS replies
  and black-holed ADD_PROVIDER stores.  Without an adversary installed the
  hooks are dormant ``None`` checks, so honest runs are byte-identical.
* **network conditions** — with a :mod:`repro.netmodel` attached, every peer
  carries a region/reachability assignment: DHT RPCs against NATed peers fail
  like real dials do (the crawler-undercount mechanism), identify deliveries
  are delayed by the inter-region RTT (the delay rides the existing event
  heap), and iterative walks accrue simulated latency on a
  :class:`~repro.netmodel.runtime.WalkClock` with a give-up budget.  Without
  a netmodel the hooks are dormant ``None`` checks, so idealised runs are
  byte-identical.
* **fault injection** — with :mod:`repro.faults` attached, RPCs can be lost
  or duplicated on the wire, peers crash abruptly (dirty state: records and
  blocks left behind, unlike graceful churn) and restart, a scheduled
  partition cuts a minority share off from every vantage point until it
  heals, and slow nodes burn walk budgets with RTT spikes.  Resilience rides
  along: retry/backoff on walks and Bitswap, republish after crash recovery.
  Without a fault config the hooks are dormant ``None`` checks, so clean
  runs are byte-identical.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
from array import array
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.ipfs.bitswap import BitswapEngine
from repro.ipfs.node import IpfsNode
from repro.kademlia.provider_store import ProviderStore
from repro.kademlia.routing_table import RoutingTable
from repro.libp2p.connection import CloseReason
from repro.libp2p.identify import IdentifyRecord
from repro.libp2p.multiaddr import Multiaddr, advertised_addrs, random_private_ipv4
from repro.libp2p.peer_id import PeerId
from repro.libp2p.protocols import AUTONAT, KAD_DHT, shared_protocols
from repro.core.measurement import PassiveMeasurement
from repro.simulation.churn_models import HOUR
from repro.simulation.config import NetworkConfig
from repro.simulation.engine import Engine, PeriodicTask
from repro.simulation.fabric import FabricRuntime
from repro.simulation.population import PeerClass, PeerProfile, Population

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.faults.runtime import FaultRuntime
    from repro.netmodel.runtime import NetModelRuntime, WalkClock


@functools.cache
def _announced(protocols: FrozenSet[str], kad: bool, autonat: bool) -> FrozenSet[str]:
    """The shared protocol set a peer announces: its profile set with the
    DHT-Server and autonat protocols as it currently announces them."""
    announced = set(protocols)
    announced.discard(KAD_DHT)
    announced.discard(AUTONAT)
    if kad:
        announced.add(KAD_DHT)
    if autonat:
        announced.add(AUTONAT)
    return shared_protocols(frozenset(announced))


class SimPeer:
    """Runtime state of one simulated remote peer.

    Most peers of a run are never contacted, identified or asked for their
    routing table, so three things are built on first read rather than at
    construction: the advertised address list (:attr:`addrs`, from the two
    private IPs drawn here), the observed dial address (:meth:`dial_addr`)
    and, for a DHT-Server, the routing table (:attr:`routing_table`, from its
    start-up sample of indices into the fabric's server list).
    """

    __slots__ = (
        "profile",
        "rng",
        "current_pid",
        "all_pids",
        "online",
        "sessions_started",
        "connections",
        "kad_announced",
        "autonat_announced",
        "agent",
        "_routing_table",
        "_table_seed",
        "_table_pool",
        "last_online_at",
        "_private_ips",
        "_addrs",
        "_dial_addr",
        "provider_store",
        "bitswap",
        "attacker",
        "net",
        "flt",
        "link",
        "_identify_cache",
    )

    def __init__(self, profile: PeerProfile, rng: random.Random) -> None:
        self.profile = profile
        self.rng = rng
        self.current_pid = PeerId.random(rng)
        #: every PID this peer has used; each rotation draws a fresh 256-bit
        #: key, so the PIDs are distinct without a set
        self.all_pids: List[PeerId] = [self.current_pid]
        self.online = False
        self.sessions_started = 0
        #: label -> row of the open connection at that measurement identity
        #: (every close pops the entry, so an entry means open)
        self.connections: Dict[str, int] = {}
        self.kad_announced = profile.is_dht_server
        self.autonat_announced = AUTONAT in profile.protocols
        self.agent = profile.agent
        self._routing_table: Optional[RoutingTable] = None
        #: the start-up sample of a DHT-Server's table, as a run of positions
        #: in ``_table_pool``'s index column (it and the server PIDs at start
        #: time, one pair every server shares), until the first read builds it
        self._table_seed: Optional[range] = None
        self._table_pool: Optional[Tuple[Sequence[int], List[PeerId]]] = None
        #: content-routing state, created lazily when a workload touches the
        #: peer (scenarios without content routing never allocate either)
        self.provider_store: Optional[ProviderStore] = None
        self.bitswap: Optional[BitswapEngine] = None
        #: malicious response behaviour (repro.adversary), None for honest peers
        self.attacker = None
        #: network conditions (repro.netmodel), None on the idealised fabric
        self.net = None
        #: fault assignment (repro.faults), None on the fault-free fabric
        self.flt = None
        #: bandwidth link (repro.bandwidth), None on the zero-size fabric
        self.link = None
        #: memoised identify record, keyed on the mutable fields it depends on
        self._identify_cache: Optional[tuple] = None
        self.last_online_at = float("-inf")
        # The private listen IPs (TCP, then QUIC) are drawn now, in the
        # stream's order; the addresses themselves are built on first read.
        self._private_ips: Optional[Tuple[str, str]] = (
            random_private_ipv4(rng),
            random_private_ipv4(rng),
        )
        self._addrs: Optional[Tuple[Multiaddr, ...]] = None
        self._dial_addr: Optional[Multiaddr] = None

    # -- identity ------------------------------------------------------------------

    def rotate_pid(self) -> None:
        self.current_pid = PeerId.random(self.rng)
        self.all_pids.append(self.current_pid)
        if self._routing_table is not None or self._table_seed is not None:
            # A new identity starts from an empty table.
            self._routing_table = None
            self._table_seed = range(0)

    @property
    def routing_table(self) -> Optional[RoutingTable]:
        """A DHT-Server's routing table (None for the others), built from its
        start-up sample on first read."""
        seed = self._table_seed
        if seed is not None:
            self._table_seed = None
            column, pids = self._table_pool
            self._routing_table = RoutingTable(self.current_pid)
            self._routing_table.add_peers(map(pids.__getitem__, column[seed.start : seed.stop]))
        return self._routing_table

    @property
    def addrs(self) -> Tuple[Multiaddr, ...]:
        """The advertised address list, built on first read: identify records
        and peerstore entries hold this tuple as is."""
        addrs = self._addrs
        if addrs is None:
            profile = self.profile
            addrs = self._addrs = advertised_addrs(
                self._private_ips, profile.public_ip, profile.behind_nat
            )
            # the addresses hold the two strings now
            self._private_ips = None
        return addrs

    def dial_addr(self) -> Multiaddr:
        """The multiaddr the measurement node observes for this peer's
        connections: a function of immutable profile fields, built on the
        first contact or dial and memoised for the rest."""
        addr = self._dial_addr
        if addr is None:
            profile = self.profile
            addr = self._dial_addr = Multiaddr.tcp(
                profile.public_ip, port=4001 + (profile.peer_index % 1000)
            )
        return addr

    def ensure_provider_store(self, ttl: float) -> ProviderStore:
        """The peer's provider-record store, created on first use."""
        if self.provider_store is None:
            self.provider_store = ProviderStore(ttl=ttl)
        return self.provider_store

    def ensure_bitswap(self) -> BitswapEngine:
        """The peer's Bitswap engine, created on first use."""
        if self.bitswap is None:
            self.bitswap = BitswapEngine()
        return self.bitswap

    def identify_record(self) -> IdentifyRecord:
        # The record is a pure function of (agent, kad, autonat) plus the
        # immutable profile protocols and addresses; identify deliveries are a
        # hot path, so the frozen record is memoised until a behaviour flips
        # one of those fields.  Consumers treat records as immutable (the
        # dataclass is frozen), so sharing one instance is safe.  The record
        # holds the peer's address tuple and the shared protocol set as they
        # are: ``IdentifyRecord.make`` copies neither.
        key = (self.agent, self.kad_announced, self.autonat_announced)
        cached = self._identify_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        record = IdentifyRecord.make(
            agent_version=self.agent,
            protocols=_announced(self.profile.protocols, key[1], key[2]),
            listen_addrs=self.addrs,
        )
        self._identify_cache = (key, record)
        return record

    @property
    def is_dht_server(self) -> bool:
        return self.kad_announced


class MeasurementIdentity:
    """One passive vantage point (the go-ipfs node or a hydra head), polled at
    its config's interval and deployed in its config's DHT role."""

    def __init__(self, label: str, node: IpfsNode) -> None:
        self.label = label
        self.node = node
        self.is_dht_server = node.is_dht_server
        role = "server" if node.is_dht_server else "client"
        self.measurement = PassiveMeasurement(node, label, measurement_role=role)
        self.neighborhood: Set[PeerId] = set()

    @property
    def peer_id(self) -> PeerId:
        return self.node.peer_id


class SimulatedNetwork:
    """Glue between population, measurement identities, and the event engine."""

    def __init__(
        self,
        engine: Engine,
        population: Population,
        rng: Optional[random.Random] = None,
        config: Optional[NetworkConfig] = None,
    ) -> None:
        self.engine = engine
        self.population = population
        self.rng = rng or random.Random(population.config.seed + 1)
        self.config = config or NetworkConfig()
        self.identities: List[MeasurementIdentity] = []
        self._identities_by_label: Dict[str, MeasurementIdentity] = {}
        #: one connection-id sequence for every vantage point on this fabric
        self.connection_ids = itertools.count(1)
        #: one PeerId -> base58 table for every vantage point's recorder on
        #: this fabric: a PID is rendered once and every log shares the string
        self.pid_names: Dict[PeerId, str] = {}
        self.peers: List[SimPeer] = [SimPeer(p, self.rng) for p in population]
        self.peers_by_pid: Dict[PeerId, SimPeer] = {p.current_pid: p for p in self.peers}
        #: peers currently online, keyed by peer_index (kept incrementally so
        #: per-tick maintenance never scans the whole population)
        self._online: Dict[int, SimPeer] = {}
        #: peers that ever accepted a provider record (sweep targets)
        self.provider_peers: List[SimPeer] = []
        #: memoised bootstrap candidates (immutable profile predicate)
        self._stable_server_peers: Optional[List[SimPeer]] = None
        #: set by AdversaryBehaviors.install(); observes honest record stores
        self.adversary_monitor = None
        #: the pluggable fabric subsystems, in dispatch order (obs, netmodel,
        #: faults, bandwidth).  Every RPC / dial / contact / identify hook
        #: point walks this list — adding a subsystem means implementing the
        #: :class:`~repro.simulation.fabric.FabricRuntime` hooks, not editing
        #: the fabric.  The named attributes below (``netmodel`` / ``faults``
        #: / ``bandwidth``) expose the same runtimes for analysis and report
        #: code that asks for one subsystem by name.
        self.runtimes: List[FabricRuntime] = []
        #: streaming-metrics runtime; None runs without observability
        self.obs = None
        #: causal span tracer; None runs without tracing
        self.tracer = None
        #: network-conditions runtime; None keeps the idealised fabric
        self.netmodel: Optional[NetModelRuntime] = None
        #: fault-injection runtime; None keeps the fault-free fabric
        self.faults: Optional[FaultRuntime] = None
        #: data-plane bandwidth runtime; None keeps the zero-size fabric
        self.bandwidth = None
        obscfg = population.config.obs
        if obscfg is not None:
            # Attached *first*: the metrics runtime must see every attempt
            # before a sibling's veto ladder can end the dispatch loop early.
            from repro.obs.runtime import MetricsRuntime

            self._attach_runtime(MetricsRuntime(obscfg, engine))
        tracecfg = population.config.trace
        if tracecfg is not None:
            # Deliberately NOT on the runtimes ladder: the tracer never
            # vetoes, charges, or contributes identify delay, so putting it
            # there would add one no-op Python call to every hook dispatch
            # on the fabric.  Recording happens only at the explicitly
            # instrumented call sites below.
            from repro.obs.spans import SpanTracer

            self.tracer = SpanTracer(tracecfg, engine)
        netcfg = population.config.netmodel
        if netcfg is not None:
            from repro.netmodel.runtime import NetModelRuntime

            self._attach_runtime(NetModelRuntime(netcfg, population.config.seed))
        faultcfg = population.config.faults
        if faultcfg is not None and faultcfg.enabled:
            from repro.faults.runtime import FaultRuntime

            self._attach_runtime(FaultRuntime(faultcfg, population.config.seed, engine))
        bwcfg = population.config.bandwidth
        if bwcfg is not None:
            from repro.bandwidth.runtime import BandwidthRuntime

            self._attach_runtime(BandwidthRuntime(bwcfg, population.config.seed))
        # Per-runtime peer assignments, each pass over all peers in peer_index
        # order from the runtime's own salted RNG stream — honest draws are
        # untouched either way, and attaching one subsystem never shifts
        # another's stream.  A runtime without per-peer state (``slot = ""``)
        # is skipped.
        for runtime in self.runtimes:
            slot = runtime.slot
            if slot:
                for peer in self.peers:
                    setattr(peer, slot, runtime.assign_peer(peer.profile))
        self._duration: Optional[float] = None
        self._started = False

    # ------------------------------------------------------------------ setup ----

    def _attach_runtime(self, runtime: FabricRuntime) -> None:
        self.runtimes.append(runtime)
        setattr(self, runtime.name, runtime)

    def add_measurement_identity(self, identity: MeasurementIdentity) -> None:
        if self._started:
            raise RuntimeError("identities must be added before start()")
        self.identities.append(identity)
        self._identities_by_label[identity.label] = identity
        identity.node.connection_ids = self.connection_ids
        identity.node.recorder.pid_names = self.pid_names

    def start(self, duration: float) -> None:
        """Schedule every process for a measurement of ``duration`` seconds."""
        if self._started:
            raise RuntimeError("network already started")
        self._started = True
        self._duration = duration
        for runtime in self.runtimes:
            for identity in self.identities:
                runtime.assign_identity(identity.label)
        self._build_routing_tables()
        self._compute_neighborhoods()
        for identity in self.identities:
            PeriodicTask(self.engine, identity.node.config.poll_interval, identity.measurement.poll)
            PeriodicTask(
                self.engine,
                self.config.identity_tick_interval,
                lambda now, ident=identity: self._identity_tick(ident, now),
            )
            PeriodicTask(
                self.engine,
                self.config.outbound_dial_interval,
                lambda now, ident=identity: self._identity_outbound(ident, now),
            )
        # Initial arrivals: the RNG draws happen per peer in peer-index order
        # (peers already online enter their session inline), the rest go to
        # schedule_bulk in one batch with contiguous sequence numbers.
        now = self.engine.now
        arrivals: List[float] = []
        arriving: List[SimPeer] = []
        for peer in self.peers:
            delay = self._initial_session_delay(peer, duration)
            if delay is not None:
                arrivals.append(now + delay)
                arriving.append(peer)
        self.engine.schedule_bulk(arrivals, self._session_start, arriving)
        for runtime in self.runtimes:
            runtime.install(self, duration)

    def _build_routing_tables(self) -> None:
        """Draw each simulated DHT-Server's routing-table sample of other
        servers; the table itself is built on first read
        (:attr:`SimPeer.routing_table`).

        The samples are runs of one shared column of indices into one shared
        list of the server PIDs: 2 bytes an entry while the pool fits 16 bits,
        and a ``range`` of column positions per server.  ``random.sample``
        draws from the population's length and the sample size alone, so
        sampling ``range(n)`` makes the draws that sampling the PID list did.
        """
        server_peers = [p for p in self.peers if p.profile.is_dht_server]
        server_pids = [p.current_pid for p in server_peers]
        indices = range(len(server_pids))
        sample_size = min(self.config.routing_table_sample, max(0, len(server_pids) - 1))
        column = array("H" if len(server_pids) <= 1 << 16 else "I")
        pool = (column, server_pids)
        for peer in server_peers:
            start = len(column)
            if sample_size:
                column.extend(self.rng.sample(indices, sample_size))
            peer._table_pool = pool
            peer._table_seed = range(start, start + sample_size)

    def _compute_neighborhoods(self) -> None:
        """Peers closest to a measurement identity discover it quickly: the
        ``neighborhood_size`` DHT-Servers nearest to it by XOR distance."""
        servers = [p for p in self.peers if p.profile.is_dht_server]
        for identity in self.identities:
            if not identity.is_dht_server:
                continue
            target = identity.peer_id
            closest = heapq.nsmallest(
                self.config.neighborhood_size,
                servers,
                key=lambda p: p.current_pid ^ target,
            )
            identity.neighborhood = {p.current_pid for p in closest}

    # --------------------------------------------------------------- sessions ----

    def _initial_session_delay(self, peer: SimPeer, duration: float) -> Optional[float]:
        """Draw a peer's initial arrival; ``None`` means it started right now
        (and entered :meth:`_session_start_now` inline)."""
        profile = peer.profile
        if profile.peer_class is PeerClass.ONE_TIME:
            # One-time peers appear once, spread over the whole window: this is
            # what makes the number of known PIDs grow continuously (Fig. 6).
            # Churn models may place the appearance themselves (flash crowds
            # concentrate arrivals inside their burst window).
            arrival = getattr(profile.session_model, "arrival_time", None)
            if arrival is not None:
                return arrival(self.rng, duration)
            return self.rng.uniform(0.0, duration * 0.95)
        online, first_change = profile.session_model.initial_state(self.rng)
        if online:
            self._session_start_now(peer, self.engine.now, first_change)
            return None
        return first_change

    def _session_start(self, peer: SimPeer) -> None:
        profile = peer.profile
        max_sessions = profile.session_model.max_sessions
        if max_sessions is not None and peer.sessions_started >= max_sessions:
            return
        uptime = profile.session_model.next_uptime(self.rng, self.engine.now)
        self._session_start_now(peer, self.engine.now, uptime)

    def _session_start_now(self, peer: SimPeer, now: float, uptime: float) -> None:
        if peer.online:
            return
        profile = peer.profile
        if peer.sessions_started > 0 and profile.rotates_pid:
            old_pid = peer.current_pid
            peer.rotate_pid()
            self.peers_by_pid[peer.current_pid] = peer
            # keep the old mapping: closed-connection bookkeeping may still look it up
            self.peers_by_pid.setdefault(old_pid, peer)
        peer.online = True
        peer.sessions_started += 1
        peer.last_online_at = now
        self._online[peer.profile.peer_index] = peer
        # The session epoch guards against stale end events: after a crash +
        # restart (repro.faults) the pre-crash session's end must not kill the
        # new session.  Without faults the epoch check never fires.
        self.engine.schedule(uptime, self._session_end, peer, peer.sessions_started)
        for identity in self.identities:
            delay = self._contact_delay(peer, identity)
            if delay is not None:
                self.engine.schedule(delay, self._attempt_contact, peer, identity)

    def _session_end(self, peer: SimPeer, epoch: Optional[int] = None) -> None:
        if not peer.online:
            return
        if epoch is not None and epoch != peer.sessions_started:
            # A crash/restart cycle superseded the session this end event
            # belonged to; the restarted session scheduled its own end.
            return
        now = self.engine.now
        peer.online = False
        peer.last_online_at = now
        self._online.pop(peer.profile.peer_index, None)
        self.sever_connections(peer)
        profile = peer.profile
        max_sessions = profile.session_model.max_sessions
        if max_sessions is not None and peer.sessions_started >= max_sessions:
            return
        downtime = profile.session_model.next_downtime(self.rng, now)
        self.engine.schedule(downtime, self._session_start, peer)

    # ----------------------------------------------------------------- faults ----

    def crash_peer(self, peer: SimPeer) -> None:
        """Abrupt peer death (repro.faults), distinct from graceful churn.

        The peer vanishes mid-session with *dirty* state: provider records it
        stored for others, its own records on remote servers, and its Bitswap
        blocks are all left behind (stale-record fodder for retrievers).  No
        next-session draw happens here — only the fault runtime's restart
        event re-enters the session machinery via :meth:`_session_start`.
        """
        if not peer.online:
            return
        now = self.engine.now
        peer.online = False
        peer.last_online_at = now
        self._online.pop(peer.profile.peer_index, None)
        self.sever_connections(peer)

    def sever_connections(self, peer: SimPeer) -> int:
        """Close every open measurement connection of ``peer`` as
        ``remote-left``; returns how many there were.

        A session end and a crash call this; so does a partition's onset, after
        which the peer stays online on its own side of the split.
        """
        now = self.engine.now
        connections = peer.connections
        for label, row in connections.items():
            self._identities_by_label[label].node.close_connection(
                row, CloseReason.REMOTE_LEFT, now
            )
        severed = len(connections)
        connections.clear()
        return severed

    # --------------------------------------------------------------- contacts ----

    def _contact_delay(self, peer: SimPeer, identity: MeasurementIdentity) -> Optional[float]:
        """Time until ``peer`` contacts ``identity`` in this session (None: never)."""
        profile = peer.profile
        if profile.is_crawler:
            # Crawlers probe every DHT-Server on their crawl schedule.
            if not identity.is_dht_server:
                return None
            return self.rng.uniform(0.0, min(self.config.crawler_contact_interval, 2 * HOUR))
        if identity.is_dht_server:
            if peer.current_pid in identity.neighborhood:
                return self.rng.uniform(30.0, self.config.neighborhood_delay_max)
            return self.rng.expovariate(1.0 / profile.discovery_mean)
        # DHT-Client measurement node: nobody actively seeks it.
        if self.rng.random() > self.config.client_contact_probability:
            return None
        return self.rng.expovariate(
            1.0 / (profile.discovery_mean * self.config.client_discovery_penalty)
        )

    def _attempt_contact(self, peer: SimPeer, identity: MeasurementIdentity) -> None:
        now = self.engine.now
        if not peer.online:
            return
        for runtime in self.runtimes:
            retry = runtime.on_contact(peer)
            if retry is not None:
                # A runtime vetoed the contact (e.g. a partition cuts this
                # peer off from every vantage point) and named the retry
                # delay; try again then.
                self.engine.schedule(retry, self._attempt_contact, peer, identity)
                return
        label = identity.label
        if label in peer.connections:
            return
        pid = peer.current_pid
        row = identity.node.handle_inbound_connection(pid, peer.dial_addr(), now)
        peer.connections[label] = row
        self.peers_by_pid[pid] = peer
        for runtime in self.runtimes:
            runtime.note_contact_made(peer)
        self._schedule_identify(peer, identity)
        self._plan_connection_end(peer, identity, row)

    def _schedule_identify(self, peer: SimPeer, identity: MeasurementIdentity) -> None:
        """Roll the identify exchange and schedule its delivery.

        The RNG draws (success roll, base processing delay) are identical
        whether or not the tracer is attached; the tracer only *reads* the
        per-runtime delay contributions while they are summed — identify
        exchanges cannot fail once scheduled, so their sampling gate runs up
        front and unsampled ones record nothing.
        """
        if peer.agent is None or self.rng.random() >= self.config.identify_success:
            return
        base = self.rng.uniform(0.5, 5.0)
        delay = base
        tracer = self.tracer
        if tracer is not None and tracer.begin_identify(
            identity.label, peer.profile.peer_index
        ):
            # Identify is by far the most frequent traced operation, so its
            # whole span tree is recorded in one composite call: collect the
            # per-runtime wire-time contributions (round trips, payload
            # serialization — they ride the same event heap) and hand them
            # over together with the base processing delay.
            parts = []
            for runtime in self.runtimes:
                extra = runtime.identify_delay(identity.label, peer)
                delay += extra
                if extra:
                    parts.append((runtime.name, extra))
            tracer.finish_identify(delay, base, parts, identity.label)
        else:
            for runtime in self.runtimes:
                # Wire time of the identify exchange (round trips, payload
                # serialization) rides the same event heap.
                delay += runtime.identify_delay(identity.label, peer)
        self.engine.schedule(delay, self._deliver_identify, peer, identity)

    def _deliver_identify(self, peer: SimPeer, identity: MeasurementIdentity) -> None:
        label = identity.label
        if label not in peer.connections:
            return
        identity.node.receive_identify(peer.current_pid, peer.identify_record(), self.engine.now)
        for runtime in self.runtimes:
            runtime.on_identify_delivered(label, peer)

    def push_identify(self, peer: SimPeer) -> None:
        """Push an updated identify record to every identity the peer is connected to."""
        if peer.agent is None:
            # Peers whose identify exchange never completes cannot push either.
            return
        for label in peer.connections:
            self._identities_by_label[label].node.receive_identify(
                peer.current_pid, peer.identify_record(), self.engine.now
            )
            for runtime in self.runtimes:
                runtime.on_identify_delivered(label, peer)

    def _plan_connection_end(self, peer: SimPeer, identity: MeasurementIdentity, row: int) -> None:
        """Decide who will close this connection, and when."""
        profile = peer.profile
        if profile.is_crawler:
            duration = self.rng.uniform(*self.config.crawler_probe_duration)
            self.engine.schedule(
                duration, self._remote_close, peer, identity, row, CloseReason.PROTOCOL_DONE
            )
            return
        keep_probability = profile.keep_probability
        if not identity.is_dht_server:
            keep_probability *= self.config.client_keep_factor
        if self.rng.random() < keep_probability:
            # The remote values the connection: it survives until the peer goes
            # offline or our own connection manager trims it.
            return
        delay = self.config.remote_grace + self.rng.expovariate(1.0 / self.config.remote_trim_mean)
        self.engine.schedule(
            delay, self._remote_close, peer, identity, row, CloseReason.REMOTE_TRIM
        )

    def _remote_close(
        self, peer: SimPeer, identity: MeasurementIdentity, row: int, reason: CloseReason
    ) -> None:
        label = identity.label
        if peer.connections.get(label) != row:
            # closed already (and maybe reopened as another row)
            return
        identity.node.close_connection(row, reason, self.engine.now)
        del peer.connections[label]
        self._maybe_reconnect(peer, identity)

    def _maybe_reconnect(self, peer: SimPeer, identity: MeasurementIdentity) -> None:
        if not peer.online:
            return
        profile = peer.profile
        if profile.is_crawler:
            self.engine.schedule(
                self.config.crawler_contact_interval, self._attempt_contact, peer, identity
            )
            return
        if profile.peer_class is PeerClass.ONE_TIME:
            if self.rng.random() > self.config.one_time_reconnect_probability:
                return
        delay = self.rng.expovariate(1.0 / profile.reconnect_mean)
        self.engine.schedule(delay, self._attempt_contact, peer, identity)

    # ----------------------------------------------------- identity maintenance ----

    def _identity_tick(self, identity: MeasurementIdentity, now: float) -> None:
        """Run the identity's connection-manager trim and handle the fallout."""
        for _, remote_peer in identity.node.tick(now):
            peer = self.peers_by_pid[remote_peer]
            del peer.connections[identity.label]
            self._maybe_reconnect(peer, identity)

    def _identity_outbound(self, identity: MeasurementIdentity, now: float) -> None:
        """The measurement node's own modest outbound dialling (DHT queries,
        Bitswap sessions, routing-table maintenance) toward online peers."""
        dialable = [p for p in self.online_peers() if identity.label not in p.connections]
        if not dialable:
            return
        batch = min(self.config.outbound_dial_batch, len(dialable))
        for peer in self.rng.sample(dialable, batch):
            if not all(runtime.on_dial(peer) for runtime in self.runtimes):
                # A runtime vetoed the dial (NAT, partition, ...); the attempt
                # is counted by the vetoing runtime, no connection is recorded.
                continue
            row = identity.node.dial(peer.current_pid, peer.dial_addr(), now)
            peer.connections[identity.label] = row
            self.peers_by_pid[peer.current_pid] = peer
            for runtime in self.runtimes:
                runtime.note_contact_made(peer)
            self._schedule_identify(peer, identity)
            # Outbound connections are valued even less by the remote side: we
            # dialled them, they did not ask for us.
            delay = self.config.remote_grace + self.rng.expovariate(
                1.0 / self.config.remote_trim_mean
            )
            keep = peer.profile.keep_probability * 0.35
            if not identity.is_dht_server:
                keep *= self.config.client_keep_factor
            if self.rng.random() < keep:
                continue
            self.engine.schedule(
                delay, self._remote_close, peer, identity, row, CloseReason.REMOTE_TRIM
            )

    # ------------------------------------------------------------- DHT RPCs ----

    def _dispatch_rpc(
        self,
        kind: str,
        remote: PeerId,
        src: Optional[SimPeer],
        clock: Optional[WalkClock],
        answer,
        *args,
    ):
        """Run one DHT RPC against a simulated peer: the single veto ladder.

        A dead/client target answers nothing (and costs nothing).  Otherwise
        every runtime is asked once, in dispatch order, whether the exchange
        survives; ``src`` names the querying peer so partitions and link loss
        apply (``None``: a vantage point / crawler, majority side).  With a
        ``clock`` the runtimes also charge the walk its wire time: a NATed
        target burns the dial timeout, a reachable one a round trip, a slow
        responder its RTT spike, and a lost/partitioned exchange answers
        nothing after paying the wire time (the caller waited for a reply
        that never came).  Only then does ``answer(peer, *args)`` run — the
        attacker-or-honest reply.

        When an operation is being traced, the RPC becomes a leaf span whose
        duration is the clock delta around this dispatch (zero unclocked) —
        leaf durations therefore telescope exactly to the walk's accrued
        latency.  A netmodel veto is an undialable peer (``dial_fail``), any
        other veto died on the wire after dialling (``lost``), and an
        attacker that swallowed the reply is ``dropped``.
        """
        peer = self.peers_by_pid.get(remote)
        if peer is None or not peer.online or not peer.kad_announced:
            return None
        tracer = self.tracer
        tracing = tracer is not None and tracer.recording
        before = clock.elapsed if tracing and clock is not None else 0.0
        reply = None
        outcome = "ok"
        for runtime in self.runtimes:
            if not runtime.on_rpc(src, peer, clock):
                outcome = "dial_fail" if runtime is self.netmodel else "lost"
                break
        else:
            reply = answer(peer, *args)
            if reply is None:
                outcome = "dropped"
        if tracing:
            clocked = clock is not None
            tracer.rpc(
                kind,
                clock.elapsed - before if clocked else 0.0,
                outcome,
                rtt=clock.last_rtt if clocked and outcome == "ok" else None,
            )
        return reply

    def dht_query(
        self,
        remote: PeerId,
        target: int,
        count: int,
        src: Optional[SimPeer] = None,
        clock: Optional[WalkClock] = None,
    ) -> Optional[List[PeerId]]:
        """FIND_NODE against a simulated peer (used by the crawler baseline).

        Peers carrying an attacker behaviour may poison, shadow, or drop the
        reply; honest peers answer from their routing table.  Under a
        netmodel, a NATed peer is undialable: the query fails exactly like a
        real crawler's dial does, which is what opens the
        crawler-undercount-vs-passive gap.
        """
        return self._dispatch_rpc(
            "find_node", remote, src, clock, self._answer_find_node, target, count
        )

    def _answer_find_node(
        self, peer: SimPeer, target: int, count: int
    ) -> Optional[List[PeerId]]:
        if peer.attacker is not None:
            return peer.attacker.on_find_node(self, peer, target, count)
        return self.honest_find_node(peer, target, count)

    def honest_find_node(
        self, peer: SimPeer, target: int, count: int
    ) -> Optional[List[PeerId]]:
        """The honest FIND_NODE reply of an online DHT-Server."""
        table = peer.routing_table
        if table is None:
            return []
        peers_by_pid = self.peers_by_pid
        now = self.engine.now
        expiry = self.config.routing_entry_expiry
        fresh: List[PeerId] = []
        for pid in table.closest_peers(target, count * 2):
            entry_peer = peers_by_pid.get(pid)
            if entry_peer is None:
                continue
            # Stale entries (peer long offline) have been cleaned from real
            # routing tables; the crawler then no longer sees those nodes.
            if not entry_peer.online and now - entry_peer.last_online_at > expiry:
                continue
            fresh.append(pid)
            if len(fresh) >= count:
                break
        return fresh

    # ----------------------------------------------------------- content routing ----

    def add_provider(
        self,
        remote: PeerId,
        key: int,
        provider: PeerId,
        ttl: float,
        src: Optional[SimPeer] = None,
        clock: Optional[WalkClock] = None,
    ) -> Optional[bool]:
        """ADD_PROVIDER against a simulated peer (None: unreachable)."""
        return self._dispatch_rpc(
            "add_provider", remote, src, clock, self._answer_add_provider, key, provider, ttl
        )

    def _answer_add_provider(
        self, peer: SimPeer, key: int, provider: PeerId, ttl: float
    ) -> Optional[bool]:
        if peer.attacker is not None:
            return peer.attacker.on_add_provider(self, peer, key, provider, ttl)
        return self.honest_add_provider(peer, key, provider, ttl)

    def honest_add_provider(
        self, peer: SimPeer, key: int, provider: PeerId, ttl: float
    ) -> Optional[bool]:
        """Store a record on an online server (the honest ADD_PROVIDER path)."""
        store = peer.provider_store
        if store is None:
            store = peer.ensure_provider_store(ttl)
            self.provider_peers.append(peer)
        store.add(key, provider, self.engine.now, ttl=ttl)
        if self.adversary_monitor is not None:
            self.adversary_monitor.note_honest_store(key, provider)
        return True

    def get_providers(
        self,
        remote: PeerId,
        key: int,
        count: int = 20,
        src: Optional[SimPeer] = None,
        clock: Optional[WalkClock] = None,
    ) -> Optional[tuple]:
        """GET_PROVIDERS against a simulated peer: (providers, closer peers)."""
        return self._dispatch_rpc(
            "get_providers", remote, src, clock, self._answer_get_providers, key, count
        )

    def _answer_get_providers(
        self, peer: SimPeer, key: int, count: int = 20
    ) -> Optional[tuple]:
        if peer.attacker is not None:
            return peer.attacker.on_get_providers(self, peer, key, count)
        return self.honest_get_providers(peer, key, count)

    def honest_get_providers(
        self, peer: SimPeer, key: int, count: int = 20
    ) -> Optional[tuple]:
        """The honest GET_PROVIDERS reply of an online DHT-Server."""
        if peer.provider_store is not None:
            providers = peer.provider_store.providers(key, self.engine.now, limit=count)
        else:
            providers = []
        closer = self.honest_find_node(peer, key, count) or []
        return providers, closer

    # ----------------------------------------------------- walk-bound RPC binders ----

    def netmodel_clock(self, peer: SimPeer) -> Optional[WalkClock]:
        """A latency clock for one of ``peer``'s iterative walks (None on the
        idealised fabric — the RPCs then cost zero simulated seconds)."""
        if self.netmodel is None:
            return None
        return self.netmodel.clock(peer.net)

    def timed_query_fn(self, clock: Optional[WalkClock], src: Optional[SimPeer] = None):
        """FIND_NODE bound to one walk's ``clock`` (may be None) and ``src``."""
        return lambda remote, target, count: self.dht_query(remote, target, count, src, clock)

    def timed_add_provider_fn(
        self, clock: Optional[WalkClock], ttl: float, src: Optional[SimPeer] = None
    ):
        """ADD_PROVIDER bound to one walk's ``clock`` (may be None) and ``src``."""
        return lambda remote, key, provider: self.add_provider(
            remote, key, provider, ttl, src, clock
        )

    def timed_get_providers_fn(
        self, clock: Optional[WalkClock], count: int = 20, src: Optional[SimPeer] = None
    ):
        """GET_PROVIDERS bound to one walk's ``clock`` (may be None) and ``src``."""
        return lambda remote, key: self.get_providers(remote, key, count, src, clock)

    def sweep_provider_stores(self, now: float) -> int:
        """Expire provider records on every store; returns records dropped."""
        dropped = 0
        for peer in self.provider_peers:
            if peer.provider_store is not None:
                dropped += peer.provider_store.expire(now)
        return dropped

    def provider_record_count(self, now: Optional[float] = None) -> int:
        """Live provider records across the fabric (all records when now=None)."""
        total = 0
        for peer in self.provider_peers:
            store = peer.provider_store
            if store is None:
                continue
            if now is None:
                total += len(store)
            else:
                total += sum(
                    len(store.records_for(key, now)) for key in list(store.keys())
                )
        return total

    def bootstrap_peers(self, count: int = 4) -> List[PeerId]:
        """Well-known entry points for crawls: long-lived online DHT-Servers.

        The candidate set depends only on immutable profile fields, so it is
        computed once; PIDs resolve at call time (stable peers rarely rotate).
        Every content publish/retrieve seeds its lookup here, so this must not
        scan the population per operation.
        """
        if self._stable_server_peers is None:
            stable = [
                p
                for p in self.peers
                if p.profile.peer_class is PeerClass.HEAVY and p.profile.is_dht_server
            ]
            if not stable:
                stable = [p for p in self.peers if p.profile.is_dht_server]
            self._stable_server_peers = stable
        return [p.current_pid for p in self._stable_server_peers[:count]]

    # ------------------------------------------------------------------ stats ----

    def online_count(self) -> int:
        return len(self._online)

    def online_peers(self) -> List[SimPeer]:
        """The online peers in ``peer_index`` order, the order draws over
        them depend on.  ``self.peers`` is built in that order and ``online``
        holds exactly for the members of ``_online``, so this filter is
        ``_online`` sorted by index without the sort."""
        return [p for p in self.peers if p.online]

    def online_server_count(self) -> int:
        # Scans only the online subset; kad_announced can flip at runtime
        # (role-flip behaviours), so the server property is not cached.  The
        # raw attribute (== is_dht_server) keeps the per-window metrics
        # gauge scan off the property protocol.
        return sum(1 for p in self._online.values() if p.kad_announced)
