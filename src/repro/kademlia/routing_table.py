"""k-bucket routing tables.

Each Kademlia node keeps up to ``k`` peers per distance bucket.  IPFS uses
``k = 20``.  The routing table only ever contains DHT-Servers (peers announcing
``/ipfs/kad/1.0.0``); this is the structural reason why crawlers — which walk
routing tables — can never observe DHT-Clients, a distinction the paper's
horizon comparison (Fig. 2) relies on.

Lookup performance matters here: every FIND_NODE a simulated DHT-Server
answers goes through :meth:`RoutingTable.closest_peers`.  Buckets therefore
keep their PIDs in an insertion-ordered mapping (O(1) ``touch``/``remove``);
a PID is its own Kademlia key, so nothing is stored beside it.
``closest_peers`` walks buckets in ascending distance order instead of
sorting the whole table:  for a fixed target, the XOR distances of any two
non-empty buckets occupy *disjoint* ranges, so each visited bucket is ranked
on its own by ``pid ^ target``, the ranked buckets are concatenated, and
traversal stops as soon as ``count`` peers have been collected.

A walk to a popular key asks the same servers for the same target over and
over, so each table memoises its answers per ``(target, count)``.  The memo is
allocated on first query, dropped by every ``add_peer`` / ``add_peers`` and by
a ``remove_peer`` that removed something, cleared when it reaches
:data:`CLOSEST_MEMO_CAPACITY` entries, and only ever hands out copies.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.kademlia.keys import KEY_BITS, bucket_index
from repro.libp2p.peer_id import PeerId

#: IPFS bucket size.
DEFAULT_BUCKET_SIZE = 20
#: Answers one table memoises before its memo is cleared.  Walks to hot keys
#: repeat a few targets per server; a crawler's random bucket targets never
#: repeat, so the cap is what keeps its tables from growing with run length.
CLOSEST_MEMO_CAPACITY = 32


class KBucket:
    """A single k-bucket with least-recently-seen eviction order.

    Entries are the keys of an insertion-ordered mapping (every value is
    ``True``) — oldest (least recently seen) first, like the original
    Kademlia paper — which makes membership, ``touch`` and ``remove`` O(1)
    instead of the list-scan the naive representation needs.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int = DEFAULT_BUCKET_SIZE) -> None:
        self.capacity = capacity
        self._entries: Dict[PeerId, bool] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, peer: PeerId) -> bool:
        return peer in self._entries

    @property
    def peers(self) -> List[PeerId]:
        """Peers in LRU order (oldest first)."""
        return list(self._entries)

    def touch(self, peer: PeerId) -> bool:
        """Record activity from ``peer``.

        Returns True if the peer is now in the bucket.  A known peer moves to
        the tail (most recently seen); a new peer is appended if there is room.
        Kademlia's ping-the-oldest eviction is simplified to "drop the new peer
        when full", which is also what go-libp2p effectively does for unreplaced
        entries.
        """
        entries = self._entries
        if entries.pop(peer, False) or len(entries) < self.capacity:
            entries[peer] = True
            return True
        return False

    def remove(self, peer: PeerId) -> bool:
        return self._entries.pop(peer, False)


def _bucket_min_distance(diff: int, index: int) -> int:
    """Smallest possible XOR distance to the target of any key in bucket ``index``.

    ``diff`` is ``local_peer ^ target``.  Keys in bucket ``index`` agree with the
    local key above bit ``index`` and differ at bit ``index``, so their distance
    to the target has ``diff``'s bits above ``index``, the flipped ``diff`` bit
    at ``index``, and anything below — the per-bucket distance ranges are
    disjoint, which is what makes ordered early-exit traversal exact.
    """
    high = diff >> (index + 1) << (index + 1)
    flipped = ((diff >> index) & 1) ^ 1
    return high | (flipped << index)


class RoutingTable:
    """A full Kademlia routing table for one local peer."""

    def __init__(self, local_peer: PeerId, bucket_size: int = DEFAULT_BUCKET_SIZE) -> None:
        self.local_peer = local_peer
        self.bucket_size = bucket_size
        self._buckets: Dict[int, KBucket] = {}
        #: (target, count) -> closest_peers answer; None until the first query
        #: and again after any add_peer / successful remove_peer
        self._closest_memo: Optional[Dict[Tuple[int, int], List[PeerId]]] = None

    # -- updates ---------------------------------------------------------------

    def add_peer(self, peer: PeerId) -> bool:
        """Try to insert/refresh ``peer``; returns True if it is (now) present."""
        if peer == self.local_peer:
            return False
        self._closest_memo = None
        index = (peer ^ self.local_peer).bit_length() - 1
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = KBucket(capacity=self.bucket_size)
        return bucket.touch(peer)

    def add_peers(self, peers: Iterable[PeerId]) -> int:
        """Insert many peers; returns how many ended up in the table.

        Bucket by bucket the same as calling :meth:`add_peer` on each peer in
        order (known peer → tail, new with room → appended, new and full →
        dropped, local peer skipped), with the table lookups hoisted out of
        the loop and the memo dropped once; this is how the fabric builds a
        table from its start-up sample.
        """
        local_peer = self.local_peer
        buckets = self._buckets
        capacity = self.bucket_size
        self._closest_memo = None
        added = 0
        for peer in peers:
            diff = peer ^ local_peer
            if not diff:
                continue
            index = diff.bit_length() - 1
            bucket = buckets.get(index)
            if bucket is None:
                bucket = buckets[index] = KBucket(capacity)
            entries = bucket._entries
            if entries.pop(peer, False) or len(entries) < capacity:
                entries[peer] = True
            else:
                continue
            added += 1
        return added

    def remove_peer(self, peer: PeerId) -> bool:
        """Forget ``peer``; returns True if it was in the table.

        Mostly asked about peers that were never added (every identify from a
        DHT-Client ends here), so a miss costs one XOR and one dict lookup and
        leaves the memo alone: the table did not change.
        """
        diff = peer ^ self.local_peer
        if not diff:
            return False
        index = diff.bit_length() - 1
        bucket = self._buckets.get(index)
        if bucket is None or not bucket.remove(peer):
            return False
        self._closest_memo = None
        if not len(bucket):
            del self._buckets[index]
        return True

    # -- queries ---------------------------------------------------------------

    def __contains__(self, peer: PeerId) -> bool:
        if peer == self.local_peer:
            return False
        index = bucket_index(self.local_peer, peer)
        bucket = self._buckets.get(index)
        return bucket is not None and peer in bucket

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def all_peers(self) -> List[PeerId]:
        peers: List[PeerId] = []
        for index in sorted(self._buckets):
            peers.extend(self._buckets[index].peers)
        return peers

    def closest_peers(self, target: int, count: int) -> List[PeerId]:
        """Return up to ``count`` known peers closest (XOR) to ``target``.

        Buckets are visited in ascending order of their minimum distance to the
        target; because per-bucket distance ranges are disjoint, each bucket is
        ranked on its own and traversal stops once ``count`` peers have been
        collected, instead of sorting the entire table per query.  Distances
        within a table are unique, so a bucket sorted on ``target ^ pid`` has
        one order.  The returned list is the caller's to mutate.
        """
        if count <= 0:
            return []
        memo = self._closest_memo
        if memo is None:
            memo = self._closest_memo = {}
        else:
            known = memo.get((target, count))
            if known is not None:
                return list(known)
        buckets = self._buckets
        diff = self.local_peer ^ target
        distance = target.__xor__
        closest: List[PeerId] = []
        for index in sorted(buckets, key=lambda i: _bucket_min_distance(diff, i)):
            closest.extend(sorted(buckets[index]._entries, key=distance))
            if len(closest) >= count:
                break
        del closest[count:]
        if len(memo) >= CLOSEST_MEMO_CAPACITY:
            memo.clear()
        memo[(target, count)] = closest
        return list(closest)

    def neighborhood(self, count: int) -> List[PeerId]:
        """Peers closest to the local key (the node's DHT neighbourhood)."""
        return self.closest_peers(self.local_peer, count)

    def depth(self) -> int:
        """Highest populated common-prefix length (how 'deep' the table goes)."""
        if not self._buckets:
            return 0
        # Smaller bucket index == closer peers == deeper common prefix.
        return KEY_BITS - 1 - min(self._buckets)
