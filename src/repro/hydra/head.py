"""A hydra-booster head: an :class:`IpfsNode` with hydra's config.

The paper's second vantage point is a hydra of two or three heads.  Each is a
DHT-Server with its own PeerId, so the heads sit apart in the keyspace and see
a wider horizon together; their shared record store is not modelled, as the
measurement stores no records.  A head is polled every minute and keeps a
peer's ``kad`` tag when the peer stops announcing the DHT.
"""

import random
from typing import Optional

from repro.ipfs.config import IpfsConfig
from repro.ipfs.node import IpfsNode

#: hydra-booster's watermarks, far above go-ipfs's 600 / 900
HYDRA_LOW_WATER, HYDRA_HIGH_WATER = 15_000, 20_000


class HydraHead(IpfsNode):
    untags_kad = False

    def __init__(
        self,
        rng: Optional[random.Random] = None,
        low_water: int = HYDRA_LOW_WATER,
        high_water: int = HYDRA_HIGH_WATER,
    ) -> None:
        super().__init__(IpfsConfig(low_water, high_water, poll_interval=60.0), rng=rng)
