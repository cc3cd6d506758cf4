"""Kademlia walks: the DHT modes and the three iterative lookups.

The transport is abstracted as *query functions*: ``query(remote, target,
count)`` asks ``remote`` for its ``count`` closest known peers to ``target``
and returns ``None`` when the remote is unreachable (offline, NATed, or not a
DHT-Server).  The simulation fabric answers these from its peers' routing
tables (``SimulatedNetwork.dht_query``), so the same walk serves simulated
peers, adversaries and tests.

Content routing reuses the same convergence machinery with two more RPCs:
``add_provider(remote, key, provider)`` stores a provider record on a remote
server and ``get_providers(remote, key)`` returns ``(providers, closer_peers)``
— the combined reply real GET_PROVIDERS messages carry.  There is no per-node
DHT object: the walks are plain functions over those callbacks, and the
fabric's peers hold the routing tables they query and the only provider
stores.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, KeysView, List, Optional, Set, Tuple

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
    """Outcome of an iterative lookup; ``closest`` and ``discovered`` are read
    from ``distance`` when asked for (content resolution asks for neither)."""

    target: int
    #: every candidate the walk saw -> its XOR distance to ``target``
    distance: Dict[PeerId, int]
    #: how many candidates ``closest`` holds at most
    count: int
    queried: Set[PeerId] = field(default_factory=set)
    hops: int = 0

    @property
    def closest(self) -> List[PeerId]:
        """The ``count`` candidates closest to the target, closest first."""
        distance = self.distance
        return sorted(distance, key=distance.__getitem__)[: self.count]

    @property
    def discovered(self) -> KeysView[PeerId]:
        return self.distance.keys()

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

    Cost model: a candidate's XOR distance, ``pid ^ target``, is computed
    once, when it is first seen, into a ``pid -> distance`` dict that a reply
    is merged into with one set difference; not-yet-queried candidates wait
    in a heap keyed on it, so a round costs O(new · log n) and nothing is
    re-sorted.  Distinct peers have distinct distances, so the heap pops one
    order whatever the order of ``seeds``, of a reply or of the pushes.

    ``stop`` is re-checked after every reply; content-routing walks use it to
    end the walk early the moment their side-goal (enough provider records)
    is met.
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
    distance = {peer: peer ^ target for peer in seeds}
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
            new = set(reply).difference(distance)
            # self_id is never a key of ``distance``
            new.discard(self_id)
            if new:
                progressed = True
                for found in new:
                    d = distance[found] = found ^ target
                    heapq.heappush(frontier, (d, found))
            if stop is not None and stop():
                done = True
            if done:
                break
        if not progressed:
            break

    return LookupResult(target=target, distance=distance, count=count, queried=queried, hops=hops)


def iterative_provide(
    key: int,
    query: QueryFn,
    add_provider: AddProviderFn,
    provider: PeerId,
    seeds: Iterable[PeerId],
    replication: int = DEFAULT_CLOSER_PEERS,
    alpha: int = DEFAULT_ALPHA,
    max_queries: int = 64,
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

