"""go-ipfs node configuration.

Only the parts of the go-ipfs config the measurement reads are modelled: the
swarm connection manager's ``LowWater``/``HighWater`` (its ``GracePeriod`` is
go-ipfs's 20 s, :data:`~repro.libp2p.connmgr.GRACE_PERIOD`), the DHT
routing mode (``dhtserver`` vs ``dhtclient``) and the exporter's poll
interval.  Table I of the paper lists the watermarks and the DHT mode per
measurement period.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kademlia.dht import DHTMode
from repro.libp2p.connmgr import DEFAULT_HIGH_WATER, DEFAULT_LOW_WATER, ConnManagerConfig


@dataclass(frozen=True)
class IpfsConfig:
    """Configuration of a (measurement) go-ipfs node."""

    low_water: int = DEFAULT_LOW_WATER
    high_water: int = DEFAULT_HIGH_WATER
    dht_mode: DHTMode = DHTMode.SERVER
    #: interval of the paper's measurement exporter (30 s for go-ipfs)
    poll_interval: float = 30.0

    def __post_init__(self) -> None:
        if self.low_water < 0:
            raise ValueError(f"low_water {self.low_water} < 0")
        if self.high_water < self.low_water:
            raise ValueError(f"high_water {self.high_water} < low_water {self.low_water}")
        if not self.poll_interval > 0:
            raise ValueError(f"poll_interval {self.poll_interval} <= 0")

    def connmgr_config(self) -> ConnManagerConfig:
        return ConnManagerConfig(low_water=self.low_water, high_water=self.high_water)

    @classmethod
    def defaults(cls) -> "IpfsConfig":
        """The stock go-ipfs configuration (LowWater 600 / HighWater 900)."""
        return cls()
