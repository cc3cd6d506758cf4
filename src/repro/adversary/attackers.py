"""Concrete attacker behaviours and keyspace grinding helpers.

An :class:`AttackerBehavior` is attached to a simulated peer
(:attr:`SimPeer.attacker <repro.simulation.network.SimPeer>`); the network
fabric consults it on the three DHT response paths — FIND_NODE,
GET_PROVIDERS, ADD_PROVIDER — before falling back to the honest
implementation.  Behaviours therefore never touch the event engine: all
*scheduling* lives in :class:`~repro.adversary.behaviors.AdversaryBehaviors`,
all *response distortion* lives here.

PID grinding is modelled by :func:`mine_pid_near`: a real attacker brute
forces key pairs until the SHA-256 of the public key shares a prefix with the
target key (each matched bit doubles the expected work, so 12–24 bits are
cheap); the simulation constructs the digest directly, which preserves the
distances without burning CPU on key generation.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.adversary.config import DROPPER, ECLIPSE, POISONER
from repro.kademlia.keys import KEY_BITS
from repro.libp2p.peer_id import PeerId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fabric imports us not)
    from repro.adversary.behaviors import AttackStats
    from repro.simulation.network import SimPeer, SimulatedNetwork

#: fabricated closer-peers per poisoned reply (unreachable PIDs mined near the
#: query target, crowding real candidates out of the walk)
BOGUS_PEERS_PER_REPLY = 8
#: leading target-key bits a fabricated PID shares (closer than anything real,
#: so walks chase ghosts first)
POISON_CLOSENESS_BITS = 20
#: probability that a poisoner poisons a given reply (else it answers honestly)
POISON_PROBABILITY = 0.9


def mine_pid_near(target: int, bits: int, rng: random.Random) -> PeerId:
    """Grind a PeerId whose Kademlia key shares ``bits`` leading bits with
    ``target`` (the remaining bits are random, so mined PIDs stay distinct)."""
    if bits <= 0:
        return PeerId(digest=rng.getrandbits(KEY_BITS).to_bytes(32, "big"))
    shift = KEY_BITS - bits
    prefix = (target >> shift) << shift
    key = prefix | rng.getrandbits(shift)
    return PeerId(digest=key.to_bytes(32, "big"))


class AttackerBehavior:
    """Base class: honest on every path, carries kind/label/stats plumbing."""

    kind: str = "honest"

    def __init__(self, label: str, stats: "AttackStats", rng: random.Random) -> None:
        self.label = label
        self.stats = stats
        self.rng = rng

    # Each hook mirrors one fabric RPC; ``peer`` is the attacker's own SimPeer.

    def on_find_node(
        self, network: "SimulatedNetwork", peer: "SimPeer", target: int, count: int
    ) -> Optional[List[PeerId]]:
        return network.honest_find_node(peer, target, count)

    def on_get_providers(
        self, network: "SimulatedNetwork", peer: "SimPeer", key: int, count: int
    ) -> Optional[Tuple[List[PeerId], List[PeerId]]]:
        return network.honest_get_providers(peer, key, count)

    def on_add_provider(
        self,
        network: "SimulatedNetwork",
        peer: "SimPeer",
        key: int,
        provider: PeerId,
        ttl: float,
    ) -> Optional[bool]:
        return network.honest_add_provider(peer, key, provider, ttl)


class EclipseAttacker(AttackerBehavior):
    """Sits on mined IDs around victim keys and captures their records.

    For victim keys the attacker acknowledges ADD_PROVIDER without storing
    anything servable, answers GET_PROVIDERS with zero providers, and names
    only fellow eclipse nodes as closer peers so walks never escape the
    captured neighbourhood.  Every other key is served honestly — parasitic
    honesty keeps the attacker in routing tables.
    """

    kind = ECLIPSE

    def __init__(
        self,
        label: str,
        stats: "AttackStats",
        rng: random.Random,
        victim_keys: Set[int],
        groups: Dict[int, List[PeerId]],
    ) -> None:
        super().__init__(label, stats, rng)
        self.victim_keys = victim_keys
        #: victim key -> every eclipse PID mined for it (shared, install-time)
        self.groups = groups

    def _fellows(self, key: int, peer: "SimPeer", count: int) -> List[PeerId]:
        fellows = [pid for pid in self.groups.get(key, ()) if pid != peer.current_pid]
        return fellows[:count]

    def on_find_node(self, network, peer, target, count):
        if target in self.victim_keys:
            self.stats.count("queries_shadowed")
            self.stats.note(network.engine.now, "eclipse-shadow", self.label)
            return self._fellows(target, peer, count)
        return network.honest_find_node(peer, target, count)

    def on_get_providers(self, network, peer, key, count):
        if key in self.victim_keys:
            self.stats.count("provider_lookups_intercepted")
            self.stats.note(network.engine.now, "eclipse-intercept", self.label)
            return [], self._fellows(key, peer, count)
        return network.honest_get_providers(peer, key, count)

    def on_add_provider(self, network, peer, key, provider, ttl):
        if key in self.victim_keys:
            # Only honest publishers' records count as captures; the ring's
            # own shadow publishes landing back on the ring would otherwise
            # swamp the capture_rate numerator.
            owner = network.peers_by_pid.get(provider)
            if owner is None or owner.profile.adversary_kind is None:
                self.stats.count("records_captured")
                self.stats.note(network.engine.now, "eclipse-capture", self.label)
            else:
                self.stats.count("shadow_records_ringed")
            return True  # acknowledged, black-holed
        return network.honest_add_provider(peer, key, provider, ttl)


class RoutingPoisoner(AttackerBehavior):
    """Returns fabricated closer-peers mined right next to the query target.

    The fabricated PIDs resolve to nobody, so walks spend their query budget
    dialling ghosts and converge on a closest-set full of unreachable
    entries; PROVIDE then stores fewer (or zero) real replicas.
    """

    kind = POISONER

    def _poisoned_reply(self, network, target: int, count: int) -> List[PeerId]:
        bogus = [
            mine_pid_near(target, POISON_CLOSENESS_BITS, self.rng)
            for _ in range(min(BOGUS_PEERS_PER_REPLY, count))
        ]
        self.stats.count("queries_poisoned")
        self.stats.count("bogus_peers_returned", len(bogus))
        self.stats.note(network.engine.now, "poison", self.label, len(bogus))
        return bogus

    def on_find_node(self, network, peer, target, count):
        if self.rng.random() < POISON_PROBABILITY:
            return self._poisoned_reply(network, target, count)
        return network.honest_find_node(peer, target, count)

    def on_get_providers(self, network, peer, key, count):
        if self.rng.random() < POISON_PROBABILITY:
            return [], self._poisoned_reply(network, key, count)
        return network.honest_get_providers(peer, key, count)


class QueryDropper(AttackerBehavior):
    """Announces DHT-Server but never answers: queries burn budget silently."""

    kind = DROPPER

    def on_find_node(self, network, peer, target, count):
        self.stats.count("queries_dropped")
        self.stats.note(network.engine.now, "drop", self.label)
        return None

    def on_get_providers(self, network, peer, key, count):
        self.stats.count("queries_dropped")
        self.stats.note(network.engine.now, "drop", self.label)
        return None

    def on_add_provider(self, network, peer, key, provider, ttl):
        self.stats.count("stores_dropped")
        return None
