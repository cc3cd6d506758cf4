"""The DHT crawler: breadth-first walk over routing tables."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Iterable, List, Optional, Set

from repro.kademlia.keys import KEY_BITS, random_key_in_bucket
from repro.libp2p.peer_id import PeerId

#: query(remote, target, count) -> closest peers, or None when unreachable.
QueryFn = Callable[[PeerId, int, int], Optional[List[PeerId]]]


@dataclass
class CrawlSnapshot:
    """The outcome of one crawl run."""

    started_at: float
    finished_at: float
    #: every PID that appeared in some routing table during the crawl
    discovered: Set[PeerId] = field(default_factory=set)
    #: the subset of discovered peers that answered our queries (online servers)
    reachable: Set[PeerId] = field(default_factory=set)
    #: the subset we queried but that never answered (offline, DHT-Client, or
    #: undialable behind a NAT — the crawler cannot tell these apart, which is
    #: exactly the paper's crawler-undercount blind spot)
    unreachable: Set[PeerId] = field(default_factory=set)
    queries_sent: int = 0

    @property
    def discovered_count(self) -> int:
        return len(self.discovered)

    @property
    def reachable_count(self) -> int:
        return len(self.reachable)

    def duration(self) -> float:
        return self.finished_at - self.started_at


class Crawler:
    """A Nebula-style crawler that enumerates the DHT-Server population.

    ``buckets_per_peer`` controls how many FIND_NODE targets are sent to each
    reachable peer; real crawlers craft one per non-empty bucket.  The crawl is
    breadth-first and stops when no unqueried peer remains.
    """

    def __init__(
        self,
        query: QueryFn,
        bootstrap_peers: Iterable[PeerId],
        buckets_per_peer: int = 16,
        rng: Optional[random.Random] = None,
        crawl_duration: float = 600.0,
    ) -> None:
        self.query = query
        self.bootstrap_peers = list(bootstrap_peers)
        self.buckets_per_peer = buckets_per_peer
        self.rng = rng or random.Random()
        self.crawl_duration = crawl_duration

    def _targets_for(self, peer: PeerId) -> List[int]:
        """FIND_NODE targets that enumerate the remote peer's buckets.

        The closest buckets (highest common prefix) hold the peer's DHT
        neighbourhood; the farther buckets cover the rest of the keyspace.  We
        probe the ``buckets_per_peer`` highest bucket indices plus the peer's
        own key, which in practice harvests nearly the full table.
        """
        local_key = peer.kad_key()
        targets = [local_key]
        for offset in range(self.buckets_per_peer):
            index = KEY_BITS - 1 - offset
            if index < 0:
                break
            targets.append(random_key_in_bucket(local_key, index, self.rng))
        return targets

    def crawl(self, now: float) -> CrawlSnapshot:
        """Run one full crawl starting at simulated time ``now``."""
        snapshot = CrawlSnapshot(started_at=now, finished_at=now + self.crawl_duration)
        # FIFO frontier: bootstrap peers first, then peers in discovery order —
        # an actual breadth-first walk (popping the tail would be depth-first).
        to_visit: Deque[PeerId] = deque(self.bootstrap_peers)
        seen: Set[PeerId] = set(to_visit)
        snapshot.discovered.update(to_visit)

        while to_visit:
            peer = to_visit.popleft()
            answered = False
            for target in self._targets_for(peer):
                snapshot.queries_sent += 1
                reply = self.query(peer, target, 20)
                if reply is None:
                    break
                answered = True
                for found in reply:
                    snapshot.discovered.add(found)
                    if found not in seen:
                        seen.add(found)
                        to_visit.append(found)
            if answered:
                snapshot.reachable.add(peer)
            else:
                snapshot.unreachable.add(peer)
        return snapshot
