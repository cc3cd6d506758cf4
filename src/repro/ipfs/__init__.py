"""A behavioural model of the go-ipfs reference client.

The paper deploys unmodified go-ipfs nodes (v0.11.0-dev / v0.13.0-dev) plus a
hydra-booster and records what those clients *observe*.  This package models
the client-side machinery that determines those observations:

* a :class:`~repro.ipfs.config.IpfsConfig` with the swarm connection-manager
  thresholds the paper tunes per measurement period,
* a :class:`~repro.ipfs.peerstore.Peerstore` that remembers every peer ever
  seen together with its identify meta data and a change log,
* a :class:`~repro.ipfs.swarm.Swarm` that owns connections and applies the
  connection manager's trimming policy,
* a thin Bitswap engine stub (the measurement never exchanges content, but the
  protocol announcement matters for the meta-data analysis), and
* the :class:`~repro.ipfs.node.IpfsNode` composition, which can run as a
  DHT-Server or DHT-Client.
"""
