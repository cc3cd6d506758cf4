"""Content-routing workload model: Zipf catalogs, knobs, and lookup stats.

The real DHT's traffic is dominated by content routing — peers publishing
provider records for the CIDs they hold (PROVIDE) and resolving them before a
Bitswap fetch (FIND_PROVIDERS) — while the paper's passive vantage points only
ever *observe* that traffic.  This module models the workload side: a catalog
of content items with Zipf-distributed popularity (a small head of hot items
draws most requests), the configuration knobs of a publish/retrieve workload,
and the statistics a scenario reports about it (success rates, hop counts,
simulated lookup latencies).

Everything is identity-by-default: a scenario without a
:class:`ContentRoutingConfig` schedules no content events and draws nothing
from any RNG, so pre-existing fixed-seed goldens are unchanged.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.kademlia.keys import key_for_content
from repro.kademlia.provider_store import (
    DEFAULT_PROVIDER_TTL,
    DEFAULT_REPUBLISH_INTERVAL,
)
from repro.simulation.churn_models import HOUR

#: how many closest servers a provider record is stored on (go-ipfs: 20)
REPLICATION = 10
#: lookup budget of one publish or resolve walk
MAX_QUERIES = 32
#: a resolve stops after this many distinct providers
MAX_PROVIDERS = 5
#: bootstrap servers seeding a lookup (clients have no routing table)
BOOTSTRAP_COUNT = 4
#: simulated per-hop RTT and block-transfer time (uniform bounds, seconds);
#: the transfer draw is replaced by real queue/serialization accounting when
#: a bandwidth model is attached
PER_HOP_LATENCY = (0.06, 0.35)
TRANSFER_LATENCY = (0.1, 0.8)
#: seed of the per-item block-size stream
BLOCK_SIZE_SEED = 101


class ZipfCatalog:
    """A fixed catalog of content items with Zipf-distributed popularity.

    Item ``i`` (0-based) has sampling weight ``1 / (i + 1) ** exponent``; with
    the classic exponent around 1 the head items dominate requests, which is
    what makes flash-crowd retrieval scenarios concentrate on few keys.  CIDs,
    keys, and block payloads are all pure functions of the item index, so two
    runs with the same seed publish and resolve identical content.

    ``size_classes`` gives every item a *real* byte size, drawn per item (in
    item order, from an independent :data:`BLOCK_SIZE_SEED` stream — the honest
    workload RNG is untouched) over ``(size_bytes, weight)`` pairs; the data-plane
    bandwidth model serializes these sizes through the transmit queues.
    ``None`` (the default) reports the tiny deterministic payload's length, so
    pre-existing goldens are unchanged.  Multi-MB sizes are transfer metadata:
    the stored block payload stays small either way.
    """

    def __init__(
        self,
        n_items: int,
        exponent: float = 1.05,
        size_classes: Optional[Sequence[Tuple[int, float]]] = None,
    ) -> None:
        if n_items <= 0:
            raise ValueError(f"n_items must be positive, got {n_items}")
        if exponent <= 0:
            raise ValueError(f"zipf exponent must be positive, got {exponent}")
        self.n_items = n_items
        self.exponent = exponent
        cumulative: List[float] = []
        total = 0.0
        for rank in range(1, n_items + 1):
            total += 1.0 / (rank**exponent)
            cumulative.append(total)
        self._cumulative = [c / total for c in cumulative]
        self._keys: List[Optional[int]] = [None] * n_items
        self._sizes: Optional[List[int]] = None
        if size_classes:
            for size, weight in size_classes:
                if size <= 0:
                    raise ValueError(f"block sizes must be positive, got {size}")
                if weight <= 0:
                    raise ValueError(
                        f"block-size weights must be positive, got {weight} for size {size}"
                    )
            size_rng = random.Random(BLOCK_SIZE_SEED)
            weight_total = float(sum(weight for _, weight in size_classes))
            size_cum: List[float] = []
            running = 0.0
            for _, weight in size_classes:
                running += weight / weight_total
                size_cum.append(running)
            self._sizes = []
            for _ in range(n_items):
                roll = size_rng.random()
                index = bisect.bisect_left(size_cum, roll)
                self._sizes.append(size_classes[min(index, len(size_classes) - 1)][0])

    def sample(self, rng: random.Random) -> int:
        """Draw an item index by popularity."""
        return bisect.bisect_left(self._cumulative, rng.random())

    def cid(self, item: int) -> str:
        return f"bafysim{item:08d}"

    def key(self, item: int) -> int:
        """The Kademlia key of an item's provider records (memoised)."""
        cached = self._keys[item]
        if cached is None:
            cached = key_for_content(self.cid(item).encode())
            self._keys[item] = cached
        return cached

    def block(self, item: int) -> bytes:
        """The deterministic block payload of an item."""
        return (self.cid(item).encode() + b"|") * 16

    def size(self, item: int) -> int:
        """The transfer size of an item's block in bytes.

        The drawn size when the catalog carries a size distribution, the
        stored payload's length otherwise.
        """
        if self._sizes is not None:
            return self._sizes[item]
        return len(self.block(item))


@dataclass
class ContentRoutingConfig:
    """Knobs of the publish/retrieve workload a scenario runs.

    Intervals are means of exponential inter-event times; scenario builders
    derive them from the scenario duration so compressed sweep cells still
    exercise the whole publish → resolve → expire cycle.
    """

    #: catalog size and popularity skew
    n_items: int = 64
    zipf_exponent: float = 1.05
    #: share of the general population that publishes / retrieves content
    publisher_share: float = 0.05
    retriever_share: float = 0.25
    #: mean time between two publishes (per publisher) / retrievals (per retriever)
    publish_interval: float = 2 * HOUR
    retrieve_interval: float = 1 * HOUR
    #: provider-record lifetime and reprovide cadence (``None``: never republish)
    provider_ttl: float = DEFAULT_PROVIDER_TTL
    republish_interval: Optional[float] = DEFAULT_REPUBLISH_INTERVAL
    #: per-item block-size distribution ((size_bytes, weight) pairs) drawn at
    #: catalog construction from :data:`BLOCK_SIZE_SEED`; ``None`` (the
    #: default) keeps the tiny deterministic payload sizes, so pre-existing
    #: goldens are unchanged
    block_size_classes: Optional[Tuple[Tuple[int, float], ...]] = None

    def __post_init__(self) -> None:
        # Every rejection names the offending field and the value it carried;
        # a sweep override that lands out of range must be attributable from
        # the message alone.
        if self.n_items <= 0:
            raise ValueError(f"n_items must be positive, got {self.n_items}")
        if self.zipf_exponent <= 0:
            raise ValueError(f"zipf_exponent must be positive, got {self.zipf_exponent}")
        for name in ("publisher_share", "retriever_share"):
            share = getattr(self, name)
            if not 0.0 <= share <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {share}")
        for name in ("publish_interval", "retrieve_interval", "provider_ttl"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.republish_interval is not None and self.republish_interval <= 0:
            raise ValueError(
                f"republish_interval must be positive or None, got {self.republish_interval}"
            )
        if self.block_size_classes is not None:
            if not self.block_size_classes:
                raise ValueError(
                    "block_size_classes must be None or non-empty, got "
                    f"{self.block_size_classes!r}"
                )
            for size, weight in self.block_size_classes:
                if size <= 0:
                    raise ValueError(
                        f"block_size_classes sizes must be positive, got {size}"
                    )
                if weight <= 0:
                    raise ValueError(
                        f"block_size_classes weights must be positive, got "
                        f"{weight} for size {size}"
                    )


@dataclass
class ContentRoutingStats:
    """What a scenario reports about its content-routing workload.

    Compact and picklable: the process-parallel sweep runner ships these back
    from worker processes instead of whole scenario results.
    """

    publishers: int = 0
    retrievers: int = 0
    #: PROVIDE operations (initial publishes; republished ones counted apart)
    provides: int = 0
    provide_successes: int = 0
    republishes: int = 0
    #: provider records accepted by servers, totalled over all operations
    records_stored: int = 0
    #: records dropped by the periodic TTL sweeps
    records_expired: int = 0
    #: FIND_PROVIDERS + fetch operations
    retrievals: int = 0
    retrieval_successes: int = 0
    #: retrievals served from the retriever's own blockstore (no lookup run)
    retrievals_local: int = 0
    #: live (unexpired) records left on the fabric when the window closed
    records_live_at_end: int = 0
    #: retrievals in the first/second half of the window (expiry visibility)
    first_half_retrievals: int = 0
    first_half_successes: int = 0
    second_half_retrievals: int = 0
    second_half_successes: int = 0
    #: per-operation samples for the CDF metrics
    provide_hops: List[int] = field(default_factory=list)
    retrieve_hops: List[int] = field(default_factory=list)
    provide_latencies: List[float] = field(default_factory=list)
    retrieve_latencies: List[float] = field(default_factory=list)

    @property
    def provide_success_rate(self) -> float:
        return self.provide_successes / self.provides if self.provides else 0.0

    @property
    def retrieval_success_rate(self) -> float:
        return self.retrieval_successes / self.retrievals if self.retrievals else 0.0

    @property
    def first_half_success_rate(self) -> float:
        if not self.first_half_retrievals:
            return 0.0
        return self.first_half_successes / self.first_half_retrievals

    @property
    def second_half_success_rate(self) -> float:
        if not self.second_half_retrievals:
            return 0.0
        return self.second_half_successes / self.second_half_retrievals
