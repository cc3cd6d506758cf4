"""A Kademlia DHT model (the routing substrate of IPFS).

IPFS peers participate in a Kademlia-based DHT (``/ipfs/kad/1.0.0``).  Two
properties matter for the paper:

* **DHT-Server vs DHT-Client.**  Only servers announce the kad protocol and are
  entered into other peers' routing tables; crawlers can therefore only ever
  see servers, while a passive node also observes clients (Fig. 1, Fig. 2).
* **Routing-table maintenance drives inbound connections.**  Servers actively
  look up and connect to peers close to themselves in XOR space, which is why a
  freshly bootstrapped measurement node quickly accumulates thousands of
  inbound connections.

The implementation provides the XOR metric, k-bucket routing tables, provider
stores, and iterative lookups over an abstract query transport; the simulation
fabric answers those queries from its peers' tables, and the crawler walks the
same tables.
"""

from repro.kademlia.keys import (
    KEY_BITS,
    bucket_index,
    key_for_peer,
    random_key_in_bucket,
    xor_distance,
)
from repro.kademlia.routing_table import KBucket, RoutingTable
from repro.kademlia.dht import (
    DHTMode,
    FindProvidersResult,
    LookupResult,
    ProvideResult,
    iterative_find_providers,
    iterative_lookup,
    iterative_provide,
)
from repro.kademlia.provider_store import ProviderRecord, ProviderStore

__all__ = [
    "KEY_BITS",
    "xor_distance",
    "bucket_index",
    "key_for_peer",
    "random_key_in_bucket",
    "KBucket",
    "RoutingTable",
    "DHTMode",
    "LookupResult",
    "ProvideResult",
    "FindProvidersResult",
    "ProviderRecord",
    "ProviderStore",
    "iterative_lookup",
    "iterative_provide",
    "iterative_find_providers",
]
