"""Kademlia node logic: server/client modes and iterative lookups.

The transport is abstracted as *query functions*: ``query(remote, target,
count)`` asks ``remote`` for its ``count`` closest known peers to ``target``
and returns ``None`` when the remote is unreachable (offline, NATed, or not a
DHT-Server).  The simulation network, the hydra heads, and the crawler all
provide such a function, so the same lookup code is reused everywhere.

Content routing reuses the same convergence machinery with two more RPCs:
``add_provider(remote, key, provider)`` stores a provider record on a remote
server and ``get_providers(remote, key)`` returns ``(providers, closer_peers)``
— the combined reply real GET_PROVIDERS messages carry.  The module-level
:func:`iterative_lookup` / :func:`iterative_find_providers` functions run the
walks for callers that are not full :class:`KademliaNode` instances (simulated
remote peers publish and resolve content without owning a node object).
"""

from __future__ import annotations

import enum
import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Set, Tuple

from repro.kademlia.keys import key_for_peer, random_key
from repro.kademlia.provider_store import ProviderStore
from repro.kademlia.routing_table import DEFAULT_BUCKET_SIZE, RoutingTable
from repro.libp2p.peer_id import PeerId

#: go-libp2p-kad-dht concurrency parameter (alpha).
DEFAULT_ALPHA = 3
#: Number of closest peers a FIND_NODE reply carries.
DEFAULT_CLOSER_PEERS = 20


class DHTMode(enum.Enum):
    """Participation mode in the DHT.

    Servers answer routing queries and appear in other peers' routing tables;
    clients only issue queries.  go-ipfs auto-detects the mode from NAT status,
    and the paper observes peers flapping between the two (Section IV.B).
    """

    SERVER = "server"
    CLIENT = "client"


QueryFn = Callable[[PeerId, int, int], Optional[List[PeerId]]]
#: add_provider(remote, key, provider) -> stored? (None: remote unreachable)
AddProviderFn = Callable[[PeerId, int, PeerId], Optional[bool]]
#: get_providers(remote, key) -> (providers, closer peers) or None (unreachable)
GetProvidersFn = Callable[[PeerId, int], Optional[Tuple[List[PeerId], List[PeerId]]]]


@dataclass
class LookupResult:
    """Outcome of an iterative lookup."""

    target: int
    closest: List[PeerId]
    queried: Set[PeerId] = field(default_factory=set)
    discovered: Set[PeerId] = field(default_factory=set)
    hops: int = 0

    def succeeded(self) -> bool:
        return bool(self.closest)


@dataclass
class ProvideResult:
    """Outcome of publishing one provider record (a PROVIDE operation)."""

    key: int
    #: servers that accepted the record, in distance order
    stored_on: List[PeerId]
    lookup: LookupResult

    def succeeded(self) -> bool:
        return bool(self.stored_on)

    @property
    def hops(self) -> int:
        return self.lookup.hops


@dataclass
class FindProvidersResult:
    """Outcome of resolving one content key (a FIND_PROVIDERS operation)."""

    key: int
    #: distinct providers in discovery order
    providers: List[PeerId]
    queried: Set[PeerId] = field(default_factory=set)
    hops: int = 0
    #: True when the walk stopped early because enough providers were found
    satisfied: bool = False

    def succeeded(self) -> bool:
        return bool(self.providers)


def iterative_lookup(
    target: int,
    query: QueryFn,
    seeds: Iterable[PeerId],
    self_id: Optional[PeerId] = None,
    alpha: int = DEFAULT_ALPHA,
    count: int = DEFAULT_CLOSER_PEERS,
    max_queries: int = 64,
    on_found: Optional[Callable[[PeerId], None]] = None,
    stop: Optional[Callable[[], bool]] = None,
    give_up: Optional[Callable[[], bool]] = None,
    retry=None,
    trace=None,
) -> LookupResult:
    """Iteratively converge on the ``count`` peers closest to ``target``.

    Each round queries the ``alpha`` closest not-yet-queried candidates and
    merges their replies.  The walk stops after a round that adds no new
    candidate, when every candidate has been queried, or when ``max_queries``
    is exhausted.  This walks longer than the textbook rule ("stop when no
    candidate closer than the current best remains"): a round that only
    learns *farther* peers still counts as progress.  The candidate set only
    ever grows, and only where a round records progress, so "no progress"
    already implies "same best ``count``" and the best set is never compared
    before and after a round.

    Cost model: a candidate's XOR distance is computed once, when it is first
    seen, and kept in a ``pid -> distance`` dict; not-yet-queried candidates
    wait in a heap keyed on it, so a round costs O(new · log n) and nothing is
    re-sorted.  Distinct peers have distinct distances, so heap order never
    falls through to comparing PeerIds and the iteration order of ``seeds``
    is irrelevant.

    ``on_found`` is invoked for every peer a reply carries (nodes use it to
    refresh their routing tables; table-less callers pass nothing).  ``stop``
    is re-checked after every reply; content-routing walks use it to end the
    walk early the moment their side-goal (enough provider records) is met.
    ``give_up`` is the failure-side twin: re-checked after every query, it
    abandons the walk when its budget (e.g. a netmodel's simulated-time
    lookup timeout) is exhausted — the result keeps whatever was found, but
    does not count as a satisfied early stop.  ``retry`` is an optional
    duck-typed executor with a ``call(fn, *args)`` method
    (:class:`repro.faults.retry.RetryState`) that re-issues ``None``-answered
    queries with backoff; ``None`` keeps the single-shot behaviour.  ``trace``
    is an optional duck-typed span tracer
    (:class:`repro.obs.spans.SpanTracer`) whose ``hop(n)`` is told the
    current batch number so the fabric's RPC leaves carry it; the walk never
    reads anything back from it.
    """
    #: every candidate ever seen -> its XOR distance to the target
    distance = {peer: peer.kad_key() ^ target for peer in seeds}
    if self_id is not None:
        distance.pop(self_id, None)
    #: the not-yet-queried candidates, closest first
    frontier = [(d, peer) for peer, d in distance.items()]
    heapq.heapify(frontier)
    queried: Set[PeerId] = set()
    hops = 0
    done = False

    while len(queried) < max_queries and not done:
        if give_up is not None and give_up():
            break
        if not frontier:
            break
        batch = [
            heapq.heappop(frontier)[1]
            for _ in range(min(alpha, max_queries - len(queried), len(frontier)))
        ]
        progressed = False
        hops += 1
        if trace is not None:
            trace.hop(hops)
        for peer in batch:
            queried.add(peer)
            if retry is None:
                reply = query(peer, target, count)
            else:
                reply = retry.call(query, peer, target, count)
            if give_up is not None and give_up():
                done = True
            if reply is None:
                if done:
                    break
                continue
            for found in reply:
                if found not in distance:
                    # self_id is never a key of ``distance``
                    if found == self_id:
                        continue
                    d = distance[found] = found.kad_key() ^ target
                    heapq.heappush(frontier, (d, found))
                    progressed = True
                if on_found is not None:
                    on_found(found)
            if stop is not None and stop():
                done = True
            if done:
                break
        if not progressed:
            break

    return LookupResult(
        target=target,
        closest=sorted(distance, key=distance.__getitem__)[:count],
        queried=queried,
        discovered=set(distance),
        hops=hops,
    )


def iterative_provide(
    key: int,
    query: QueryFn,
    add_provider: AddProviderFn,
    provider: PeerId,
    seeds: Iterable[PeerId],
    replication: int = DEFAULT_CLOSER_PEERS,
    alpha: int = DEFAULT_ALPHA,
    max_queries: int = 64,
    on_found: Optional[Callable[[PeerId], None]] = None,
    give_up: Optional[Callable[[], bool]] = None,
    retry=None,
    trace=None,
) -> ProvideResult:
    """Publish a provider record: converge on ``key`` and store the record on
    the ``replication`` closest servers that accept it.  A walk abandoned by
    ``give_up`` still stores on the closest servers found so far.  ``retry``
    (duck-typed, see :func:`iterative_lookup`) re-issues lost queries and
    lost store RPCs with backoff; ``trace`` annotates the walk's RPC leaves
    with their hop number (0 marks the store phase)."""
    lookup = iterative_lookup(
        key,
        query,
        seeds,
        self_id=provider,
        alpha=alpha,
        count=max(replication, DEFAULT_CLOSER_PEERS),
        max_queries=max_queries,
        on_found=on_found,
        give_up=give_up,
        retry=retry,
        trace=trace,
    )
    stored_on: List[PeerId] = []
    if trace is not None:
        trace.hop(0)
    for peer in lookup.closest:
        if len(stored_on) >= replication:
            break
        if retry is None:
            stored = add_provider(peer, key, provider)
        else:
            stored = retry.call(add_provider, peer, key, provider)
        if stored:
            stored_on.append(peer)
    return ProvideResult(key=key, stored_on=stored_on, lookup=lookup)


def iterative_find_providers(
    key: int,
    query_providers: GetProvidersFn,
    seeds: Iterable[PeerId],
    self_id: Optional[PeerId] = None,
    alpha: int = DEFAULT_ALPHA,
    count: int = DEFAULT_CLOSER_PEERS,
    max_queries: int = 64,
    max_providers: int = DEFAULT_CLOSER_PEERS,
    on_found: Optional[Callable[[PeerId], None]] = None,
    give_up: Optional[Callable[[], bool]] = None,
    retry=None,
    trace=None,
) -> FindProvidersResult:
    """Resolve the providers of ``key``.

    The walk *is* :func:`iterative_lookup` — GET_PROVIDERS replies are
    adapted into FIND_NODE-shaped ones (their provider payload accumulates on
    the side) and the shared walk stops early once ``max_providers`` distinct
    providers are known.  ``retry`` (duck-typed, see
    :func:`iterative_lookup`) re-issues lost GET_PROVIDERS with backoff; the
    adapter is idempotent, so a retried reply never double-counts providers.
    """
    providers: List[PeerId] = []
    provider_set: Set[PeerId] = set()

    def query_adapter(peer: PeerId, target: int, reply_count: int) -> Optional[List[PeerId]]:
        reply = query_providers(peer, key)
        if reply is None:
            return None
        found_providers, closer = reply
        for candidate in found_providers:
            if candidate not in provider_set:
                provider_set.add(candidate)
                providers.append(candidate)
        return closer

    lookup = iterative_lookup(
        key,
        query_adapter,
        seeds,
        self_id=self_id,
        alpha=alpha,
        count=count,
        max_queries=max_queries,
        on_found=on_found,
        stop=lambda: len(providers) >= max_providers,
        give_up=give_up,
        retry=retry,
        trace=trace,
    )
    return FindProvidersResult(
        key=key,
        providers=providers,
        queried=lookup.queried,
        hops=lookup.hops,
        satisfied=len(providers) >= max_providers,
    )


class KademliaNode:
    """The DHT state machine of a single peer."""

    def __init__(
        self,
        peer_id: PeerId,
        mode: DHTMode = DHTMode.SERVER,
        bucket_size: int = DEFAULT_BUCKET_SIZE,
        alpha: int = DEFAULT_ALPHA,
        rng: Optional[random.Random] = None,
        provider_store: Optional[ProviderStore] = None,
    ) -> None:
        self.peer_id = peer_id
        self.mode = mode
        self.alpha = alpha
        self.rng = rng or random.Random()
        self.routing_table = RoutingTable(peer_id, bucket_size=bucket_size)
        self.provider_store = provider_store or ProviderStore()
        self.lookups_performed = 0
        self.provides_performed = 0
        self.provider_lookups_performed = 0

    # -- mode handling ----------------------------------------------------------

    def set_mode(self, mode: DHTMode) -> None:
        self.mode = mode

    @property
    def is_server(self) -> bool:
        return self.mode is DHTMode.SERVER

    # -- local RPC handlers ------------------------------------------------------

    def handle_find_node(
        self, target: int, count: int = DEFAULT_CLOSER_PEERS
    ) -> Optional[List[PeerId]]:
        """Answer a FIND_NODE request; clients do not answer."""
        if not self.is_server:
            return None
        return self.routing_table.closest_peers(target, count)

    def handle_add_provider(self, key: int, provider: PeerId, now: float) -> Optional[bool]:
        """Store a provider record; clients do not accept them."""
        if not self.is_server:
            return None
        self.provider_store.add(key, provider, now)
        return True

    def handle_get_providers(
        self, key: int, now: float, count: int = DEFAULT_CLOSER_PEERS
    ) -> Optional[Tuple[List[PeerId], List[PeerId]]]:
        """Answer a GET_PROVIDERS request: (known providers, closer peers)."""
        if not self.is_server:
            return None
        providers = self.provider_store.providers(key, now, limit=count)
        closer = self.routing_table.closest_peers(key, count)
        return providers, closer

    def observe_peer(self, peer: PeerId, is_server: bool = True) -> None:
        """Record that we heard from ``peer`` (only servers enter the table)."""
        if is_server:
            self.routing_table.add_peer(peer)
        else:
            self.routing_table.remove_peer(peer)

    def forget_peer(self, peer: PeerId) -> None:
        self.routing_table.remove_peer(peer)

    # -- iterative lookup ---------------------------------------------------------

    def iterative_find_node(
        self,
        target: int,
        query: QueryFn,
        count: int = DEFAULT_CLOSER_PEERS,
        max_queries: int = 64,
        seeds: Optional[Iterable[PeerId]] = None,
    ) -> LookupResult:
        """Iteratively converge on the ``count`` peers closest to ``target``.

        Seeds :func:`iterative_lookup` with our own ``count`` closest table
        entries (plus ``seeds``) and refreshes the table with every peer a
        reply carries.  The walk stops after a round that adds no new
        candidate — not at the textbook "no closer candidate remains" — or
        when ``max_queries`` is exhausted; see :func:`iterative_lookup`.
        """
        self.lookups_performed += 1
        candidates: Set[PeerId] = set(seeds or [])
        candidates.update(self.routing_table.closest_peers(target, count))
        return iterative_lookup(
            target,
            query,
            candidates,
            self_id=self.peer_id,
            alpha=self.alpha,
            count=count,
            max_queries=max_queries,
            on_found=self.routing_table.add_peer,
        )

    # -- content routing ----------------------------------------------------------

    def provide(
        self,
        key: int,
        query: QueryFn,
        add_provider: AddProviderFn,
        now: float,
        replication: int = DEFAULT_CLOSER_PEERS,
        max_queries: int = 64,
        seeds: Optional[Iterable[PeerId]] = None,
    ) -> ProvideResult:
        """Publish a provider record for ``key`` under our own PeerId.

        Converges on the key, asks the ``replication`` closest servers to
        store the record, and keeps a local copy (go-ipfs also serves its own
        records while online).
        """
        self.provides_performed += 1
        candidates: Set[PeerId] = set(seeds or [])
        candidates.update(self.routing_table.closest_peers(key, replication))
        result = iterative_provide(
            key,
            query,
            add_provider,
            self.peer_id,
            candidates,
            replication=replication,
            alpha=self.alpha,
            max_queries=max_queries,
            on_found=self.routing_table.add_peer,
        )
        self.provider_store.add(key, self.peer_id, now)
        return result

    def find_providers(
        self,
        key: int,
        query_providers: GetProvidersFn,
        now: float,
        count: int = DEFAULT_CLOSER_PEERS,
        max_queries: int = 64,
        max_providers: int = DEFAULT_CLOSER_PEERS,
        seeds: Optional[Iterable[PeerId]] = None,
    ) -> FindProvidersResult:
        """Resolve the providers of ``key``, checking the local store first."""
        self.provider_lookups_performed += 1
        local = self.provider_store.providers(key, now, limit=max_providers)
        if len(local) >= max_providers:
            return FindProvidersResult(
                key=key, providers=local, queried=set(), hops=0, satisfied=True
            )
        candidates: Set[PeerId] = set(seeds or [])
        candidates.update(self.routing_table.closest_peers(key, count))
        result = iterative_find_providers(
            key,
            query_providers,
            candidates,
            self_id=self.peer_id,
            alpha=self.alpha,
            count=count,
            max_queries=max_queries,
            max_providers=max_providers,
            on_found=self.routing_table.add_peer,
        )
        if local:
            merged = list(local)
            seen = set(local)
            for provider in result.providers:
                if provider not in seen:
                    seen.add(provider)
                    merged.append(provider)
            result = FindProvidersResult(
                key=key,
                providers=merged[:max_providers],
                queried=result.queried,
                hops=result.hops,
                satisfied=result.satisfied or len(merged) >= max_providers,
            )
        return result

    def bootstrap(
        self,
        bootstrap_peers: Iterable[PeerId],
        query: QueryFn,
        refresh_lookups: int = 3,
    ) -> LookupResult:
        """Join the DHT: seed the table with bootstrap peers and self-lookup.

        Afterwards a few random-key refresh lookups spread the table across the
        keyspace, like go-libp2p's routing table refresh.
        """
        seeds = list(bootstrap_peers)
        for peer in seeds:
            self.routing_table.add_peer(peer)
        result = self.iterative_find_node(key_for_peer(self.peer_id), query, seeds=seeds)
        for _ in range(refresh_lookups):
            self.iterative_find_node(random_key(self.rng), query)
        return result

    def refresh(self, query: QueryFn, lookups: int = 1) -> None:
        """Periodic routing-table refresh (random-target lookups)."""
        for _ in range(lookups):
            self.iterative_find_node(random_key(self.rng), query)

    # -- introspection -----------------------------------------------------------

    def table_size(self) -> int:
        return len(self.routing_table)

    def neighborhood(self, count: int = DEFAULT_CLOSER_PEERS) -> List[PeerId]:
        return self.routing_table.neighborhood(count)
