"""A model of the hydra-booster node.

Hydra-booster accelerates IPFS content routing by running many DHT "heads" —
each with its own PeerId, hence its own position in the Kademlia keyspace.
The paper uses a hydra with two or three heads as its second passive vantage
point: more heads mean a wider horizon, because peers near each head's
keyspace position seek connections to it.
"""

from repro.hydra.head import HydraHead
from repro.hydra.hydra import HydraNode

__all__ = ["HydraHead", "HydraNode"]
