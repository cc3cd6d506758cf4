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
