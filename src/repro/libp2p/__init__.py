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

from repro.libp2p.crypto import KeyPair, generate_keypair
from repro.libp2p.peer_id import PeerId
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.protocols import (
    AUTONAT,
    BITSWAP_120,
    IPFS_ID,
    IPFS_PING,
    KAD_DHT,
    baseline_protocols,
)
from repro.libp2p.identify import IdentifyRecord
from repro.libp2p.connection import Connection, Direction
from repro.libp2p.connmgr import ConnectionManager, ConnManagerConfig, TagInfo

__all__ = [
    "KeyPair",
    "generate_keypair",
    "PeerId",
    "Multiaddr",
    "baseline_protocols",
    "AUTONAT",
    "BITSWAP_120",
    "IPFS_ID",
    "IPFS_PING",
    "KAD_DHT",
    "IdentifyRecord",
    "Connection",
    "Direction",
    "ConnectionManager",
    "ConnManagerConfig",
    "TagInfo",
]
