"""A minimal libp2p model.

The paper's measurement clients (go-ipfs, hydra-booster) are built on libp2p.
The analysis only depends on a small slice of libp2p behaviour:

* peer identities (key pair → PeerId, base58 multihash),
* multiaddresses (transport addresses, IP extraction, NAT/relay forms),
* the identify protocol (agent version, supported protocols, multiaddrs),
* connections with a direction and open/close timestamps, and
* the connection manager that trims connections between ``LowWater`` and
  ``HighWater`` — the mechanism the paper identifies as the dominant source of
  connection churn.

py-libp2p is incomplete, so this package rebuilds exactly that slice in plain
Python, suitable for driving a discrete-event simulation.
"""
