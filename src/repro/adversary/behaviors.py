"""Attacker lifecycle: installation, scheduling, and the attack event stream.

:class:`AdversaryBehaviors` is the adversary counterpart of
:class:`~repro.simulation.behaviors.MetadataBehaviors` /
:class:`~repro.simulation.behaviors.ContentBehaviors`:

* :meth:`install` runs *before* the network starts — it grinds Sybil PIDs
  into the measurement identities' neighbourhoods, grinds eclipse rings
  around the victim content keys, and attaches the malicious response
  behaviours to their peers (routing tables and neighbourhoods are then built
  over the mined IDs, exactly as if the attackers had joined earlier).
* :meth:`schedule_all` runs *after* the network starts and schedules the
  active attacks (currently the eclipse shadow-record publishing loop);
  Sybil staged arrivals and spoofer PID rotation ride the ordinary session
  machinery via their profiles.
* :meth:`finalize` closes the books: attacker PID inventory, spoofed-session
  totals, and end-of-window eclipse occupancy.

Everything an attacker does lands in one :class:`AttackStats` — monotonic
counters plus a bounded, deterministically ordered event stream.  Two runs
with the same scenario seed must produce identical streams; the determinism
tests pin exactly that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.adversary.attackers import (
    EclipseAttacker,
    QueryDropper,
    RoutingPoisoner,
    mine_pid_near,
)
from repro.adversary.config import (
    CHURN_SPOOFER,
    DROPPER,
    ECLIPSE,
    POISONER,
    SYBIL,
    AdversaryConfig,
)
from repro.kademlia.dht import iterative_provide
from repro.libp2p.peer_id import PeerId
from repro.simulation.content import REPLICATION, ContentRoutingConfig, ZipfCatalog
from repro.simulation.engine import Engine, PeriodicTask

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.simulation.network import SimPeer, SimulatedNetwork

#: extra replicas past the eclipse ring a shadow publish spills onto
SHADOW_SPILL = 5


@dataclass
class AttackStats:
    """Ground-truth record of everything the adversary did in one run."""

    #: total attacker peers and the split per kind label
    attackers: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    #: monotonic counters (queries_dropped, records_captured, ...)
    counters: Dict[str, int] = field(default_factory=dict)
    #: the content keys the eclipse attack targets (empty without eclipse)
    victim_keys: List[int] = field(default_factory=list)
    #: every PID any attacker ever used, base58 (filled at finalize)
    attacker_pids: Set[str] = field(default_factory=set)
    #: churn-spoofer ground truth: sessions started / distinct PIDs burned
    spoofed_sessions: int = 0
    spoofed_pids: int = 0
    #: mean attacker share of the k closest online servers per victim key at
    #: the end of the window (1.0 = fully eclipsed)
    eclipse_occupancy: float = 0.0
    #: bounded attack event stream: (time, kind, attacker label, detail)
    events: List[Tuple] = field(default_factory=list)
    events_dropped: int = 0
    max_events: int = 20_000

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def note(self, now: float, kind: str, label: str, detail: Optional[object] = None) -> None:
        if len(self.events) >= self.max_events:
            self.events_dropped += 1
            return
        self.events.append((round(now, 3), kind, label, detail))

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)


class AdversaryBehaviors:
    """Installs attackers on the fabric and schedules their active behaviour."""

    def __init__(
        self,
        engine: Engine,
        network: "SimulatedNetwork",
        rng: Optional[random.Random] = None,
        config: Optional[AdversaryConfig] = None,
        content: Optional[ContentRoutingConfig] = None,
    ) -> None:
        if config is None:
            raise ValueError("AdversaryBehaviors needs an AdversaryConfig")
        self.engine = engine
        self.network = network
        self.rng = rng or random.Random(network.population.config.seed + 5)
        self.config = config
        self.content = content
        self.stats = AttackStats()
        self._by_kind: Dict[str, List["SimPeer"]] = {}
        self._attackers: List["SimPeer"] = []
        self._victim_keys: Set[int] = set()
        self._eclipse_groups: Dict[int, List[PeerId]] = {}
        self._installed = False

    # -- installation (pre-start) --------------------------------------------------

    def install(self, duration: float) -> None:
        """Mine attacker PIDs and attach behaviours; must run before
        ``network.start()`` so tables and neighbourhoods see the mined IDs."""
        if self._installed:
            raise RuntimeError("adversary already installed")
        self._installed = True
        for peer in self.network.peers:
            kind = peer.profile.adversary_kind
            if kind is None:
                continue
            self._by_kind.setdefault(kind, []).append(peer)
            self._attackers.append(peer)
        self.stats.attackers = len(self._attackers)
        self.stats.by_kind = {
            kind: len(peers) for kind, peers in sorted(self._by_kind.items())
        }

        if self.config.eclipse is not None:
            self._victim_keys = set(self._compute_victim_keys())
            self.stats.victim_keys = sorted(self._victim_keys)

        self._install_sybils()
        self._install_eclipse()
        self._install_poisoners()
        self.network.adversary_monitor = self

    def _rekey(self, peer: "SimPeer", pid: PeerId) -> None:
        """Swap a peer's identity for a mined one (pre-start only)."""
        self.network.peers_by_pid.pop(peer.current_pid, None)
        peer.current_pid = pid
        peer.all_pids = [pid]
        self.network.peers_by_pid[pid] = peer

    def _compute_victim_keys(self) -> List[int]:
        """The attacked keys: hottest catalog items, else the vantage points."""
        assert self.config.eclipse is not None
        items = self.config.eclipse.victim_items
        if self.content is not None:
            catalog = ZipfCatalog(self.content.n_items, self.content.zipf_exponent)
            return [catalog.key(item) for item in range(min(items, catalog.n_items))]
        # No content workload: eclipse the measurement identities themselves.
        keys = [
            identity.peer_id.kad_key()
            for identity in self.network.identities
            if identity.is_dht_server
        ]
        return keys[:items]

    def _install_sybils(self) -> None:
        sybil = self.config.sybil
        sybils = self._by_kind.get(SYBIL, [])
        if sybil is None or not sybils:
            return
        targets = [
            identity.peer_id.kad_key()
            for identity in self.network.identities
            if identity.is_dht_server
        ] or [identity.peer_id.kad_key() for identity in self.network.identities]
        for i, peer in enumerate(sybils):
            target = targets[i % len(targets)]
            self._rekey(peer, mine_pid_near(target, sybil.closeness_bits, self.rng))
            self.stats.note(0.0, "sybil-mine", f"{SYBIL}-{i}", i % len(targets))
        self.stats.count("sybil_pids_mined", len(sybils))

    def _install_eclipse(self) -> None:
        eclipse = self.config.eclipse
        nodes = self._by_kind.get(ECLIPSE, [])
        if eclipse is None or not nodes or not self._victim_keys:
            return
        victims = sorted(self._victim_keys)
        for i, peer in enumerate(nodes):
            victim = victims[i % len(victims)]
            pid = mine_pid_near(victim, eclipse.closeness_bits, self.rng)
            self._rekey(peer, pid)
            self._eclipse_groups.setdefault(victim, []).append(pid)
            peer.attacker = EclipseAttacker(
                label=f"{ECLIPSE}-{i}",
                stats=self.stats,
                rng=self.rng,
                victim_keys=self._victim_keys,
                groups=self._eclipse_groups,
            )
            self.stats.note(0.0, "eclipse-mine", f"{ECLIPSE}-{i}", i % len(victims))
        self.stats.count("eclipse_pids_mined", len(nodes))

    def _install_poisoners(self) -> None:
        if self.config.poison is None:
            return
        for i, peer in enumerate(self._by_kind.get(DROPPER, [])):
            peer.attacker = QueryDropper(f"{DROPPER}-{i}", self.stats, self.rng)
        for i, peer in enumerate(self._by_kind.get(POISONER, [])):
            peer.attacker = RoutingPoisoner(f"{POISONER}-{i}", self.stats, self.rng)

    # -- scheduling (post-start) ---------------------------------------------------

    def schedule_all(self, duration: float) -> None:
        """Schedule the active attacks on the event engine."""
        if not self._installed:
            raise RuntimeError("install() must run before schedule_all()")
        eclipse = self.config.eclipse
        if (
            eclipse is not None
            and eclipse.shadow_publish_interval is not None
            and self._eclipse_groups
        ):
            PeriodicTask(
                self.engine,
                eclipse.shadow_publish_interval,
                self._shadow_publish,
                start_delay=eclipse.shadow_publish_interval / 2.0,
            )

    def _shadow_publish(self, now: float) -> None:
        """Push bogus provider records (naming eclipse nodes, which never serve
        blocks) onto honest servers around each victim key, crowding real
        providers out of retrievers' bounded provider budgets."""
        network = self.network
        for victim in sorted(self._eclipse_groups):
            group = self._eclipse_groups[victim]
            online = [
                pid for pid in group
                if (p := network.peers_by_pid.get(pid)) is not None and p.online
            ]
            if not online:
                continue
            provider = online[self.rng.randrange(len(online))]
            result = iterative_provide(
                victim,
                network.dht_query,
                lambda remote, k, p: network.add_provider(remote, k, p, self._shadow_ttl()),
                provider,
                network.bootstrap_peers() + online,
                replication=len(group) + SHADOW_SPILL,
                max_queries=32,
            )
            self.stats.count("shadow_publishes")
            self.stats.count("shadow_records_stored", len(result.stored_on))
            self.stats.note(now, "eclipse-shadow-publish", ECLIPSE, len(result.stored_on))

    def _shadow_ttl(self) -> float:
        if self.content is not None:
            return self.content.provider_ttl
        return 12 * 3_600.0

    # -- fabric monitor hooks --------------------------------------------------------

    def note_honest_store(self, key: int, provider: PeerId) -> None:
        """Called by the fabric whenever an honest server accepts a record."""
        if key not in self._victim_keys:
            return
        peer = self.network.peers_by_pid.get(provider)
        if peer is not None and peer.profile.adversary_kind is not None:
            self.stats.count("shadow_records_accepted")
        else:
            self.stats.count("victim_records_honest")

    # -- finalisation -----------------------------------------------------------------

    def finalize(self, now: float) -> AttackStats:
        stats = self.stats
        for peer in self._attackers:
            for pid in peer.all_pids:
                stats.attacker_pids.add(str(pid))
        spoofers = self._by_kind.get(CHURN_SPOOFER, [])
        stats.spoofed_sessions = sum(p.sessions_started for p in spoofers)
        stats.spoofed_pids = sum(len(p.all_pids) for p in spoofers)
        stats.count("sybil_sessions", sum(p.sessions_started for p in self._by_kind.get(SYBIL, [])))
        if self._victim_keys:
            stats.eclipse_occupancy = self._occupancy(now)
            stats.count("victim_records_live_honest", self._live_honest_victim_records(now))
        return stats

    def _occupancy(self, now: float) -> float:
        """Mean attacker share of the record-replication-factor closest online
        servers per victim key."""
        network = self.network
        online_servers = [
            p for p in network.peers if p.online and p.is_dht_server
        ]
        if not online_servers:
            return 0.0
        shares: List[float] = []
        for victim in sorted(self._victim_keys):
            closest = sorted(
                online_servers,
                key=lambda p: p.current_pid ^ victim,
            )[:REPLICATION]
            if not closest:
                continue
            attackers = sum(1 for p in closest if p.profile.adversary_kind is not None)
            shares.append(attackers / len(closest))
        return sum(shares) / len(shares) if shares else 0.0

    def _live_honest_victim_records(self, now: float) -> int:
        """Live victim-key records on honest stores naming honest providers."""
        total = 0
        for peer in self.network.provider_peers:
            store = peer.provider_store
            if store is None:
                continue
            for victim in self._victim_keys:
                for record in store.records_for(victim, now):
                    owner = self.network.peers_by_pid.get(record.provider)
                    if owner is None or owner.profile.adversary_kind is None:
                        total += 1
        return total
