"""Provider-record storage: who provides which content key.

Content routing is the DHT traffic class the paper's passive vantage points
actually see most of: peers publish *provider records* (PROVIDE) for the CIDs
they hold and resolve them (FIND_PROVIDERS) before fetching blocks over
Bitswap.  A provider record is soft state — go-ipfs expires records 24 h after
they were stored and republishes its own records every 12 h — so record
liveness under churn is a property of the publish/republish/expiry race, which
is exactly what the content-routing scenarios measure.

The store keeps, per content key, an insertion-ordered mapping
``provider -> ProviderRecord``.  Re-adding a provider refreshes its expiry
without changing its position and reads filter expired records lazily.

:meth:`ProviderStore.expire` sweeps expired records *incrementally*: every
write also pushes ``(expires_at, key, provider)`` onto a min-heap, and a sweep
only pops the heap prefix that is actually due — O(dropped log n) instead of
a full scan of every stored record.  Refreshes and removals leave stale heap
entries behind; they are recognised (the live record's expiry no longer
matches) and discarded lazily when popped, the standard lazy-deletion
pattern.  At simulation scale most sweeps drop nothing, which the heap makes
an O(1) peek instead of an all-keys walk.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.libp2p.peer_id import PeerId

#: go-ipfs provider-record lifetime (24 h).
DEFAULT_PROVIDER_TTL = 24 * 3_600.0
#: go-ipfs reprovide interval (12 h) — half the TTL, so a live provider's
#: records never expire.
DEFAULT_REPUBLISH_INTERVAL = 12 * 3_600.0


@dataclass(frozen=True)
class ProviderRecord:
    """One stored (content key, provider) assertion with its expiry."""

    key: int
    provider: PeerId
    added_at: float
    expires_at: float

    def is_expired(self, now: float) -> bool:
        return now >= self.expires_at


class ProviderStore:
    """TTL-expiring provider records of one DHT server."""

    __slots__ = ("ttl", "_records", "_expiry_heap")

    def __init__(self, ttl: float = DEFAULT_PROVIDER_TTL) -> None:
        if ttl <= 0:
            raise ValueError(f"provider TTL must be positive, got {ttl}")
        self.ttl = ttl
        self._records: Dict[int, Dict[PeerId, ProviderRecord]] = {}
        #: (expires_at, key, provider) min-heap driving incremental sweeps;
        #: may hold stale entries for refreshed/removed records (lazy deletion)
        self._expiry_heap: List[Tuple[float, int, PeerId]] = []

    # -- writes -----------------------------------------------------------------

    def add(
        self,
        key: int,
        provider: PeerId,
        now: float,
        ttl: Optional[float] = None,
    ) -> ProviderRecord:
        """Store (or refresh) a provider record; returns the stored record."""
        record = ProviderRecord(
            key=key,
            provider=provider,
            added_at=now,
            expires_at=now + (self.ttl if ttl is None else ttl),
        )
        self._records.setdefault(key, {})[provider] = record
        heapq.heappush(self._expiry_heap, (record.expires_at, key, provider))
        return record

    def remove(self, key: int, provider: PeerId) -> bool:
        """Drop one provider record; returns True if it existed."""
        per_key = self._records.get(key)
        if per_key is None or provider not in per_key:
            return False
        del per_key[provider]
        if not per_key:
            del self._records[key]
        return True

    def expire(self, now: float) -> int:
        """Sweep out every expired record; returns how many were dropped.

        Pops only the due prefix of the expiry heap.  A popped entry whose
        live record carries a different expiry is stale (the record was
        refreshed — its newer heap entry is still queued — or removed) and is
        discarded without touching the store.
        """
        heap = self._expiry_heap
        dropped = 0
        while heap and heap[0][0] <= now:
            expires_at, key, provider = heapq.heappop(heap)
            per_key = self._records.get(key)
            if per_key is None:
                continue
            record = per_key.get(provider)
            if record is None or record.expires_at != expires_at:
                continue  # stale heap entry
            del per_key[provider]
            dropped += 1
            if not per_key:
                del self._records[key]
        return dropped

    # -- reads ------------------------------------------------------------------

    def providers(self, key: int, now: float, limit: Optional[int] = None) -> List[PeerId]:
        """Live providers of ``key`` in insertion order (expired filtered)."""
        per_key = self._records.get(key)
        if not per_key:
            return []
        live = [r.provider for r in per_key.values() if not r.is_expired(now)]
        return live if limit is None else live[:limit]

    def records_for(self, key: int, now: float) -> List[ProviderRecord]:
        """Live records of ``key`` in insertion order."""
        per_key = self._records.get(key)
        if not per_key:
            return []
        return [r for r in per_key.values() if not r.is_expired(now)]

    def keys(self) -> Iterable[int]:
        """Every key with at least one stored (possibly expired) record."""
        return self._records.keys()

    def key_count(self) -> int:
        return len(self._records)

    def __len__(self) -> int:
        """Stored records, including expired ones not yet swept."""
        return sum(len(per_key) for per_key in self._records.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ProviderStore(keys={self.key_count()}, records={len(self)})"
