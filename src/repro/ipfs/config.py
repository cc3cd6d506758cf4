"""go-ipfs node configuration.

Only the parts of the go-ipfs config the paper touches are modelled: the swarm
connection manager's ``LowWater``/``HighWater``/``GracePeriod``, the DHT
routing mode (``dhtserver`` vs ``dhtclient``), the announced agent version, and
the swarm port.  Table I of the paper is a list of exactly these knobs per
measurement period.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kademlia.dht import DHTMode
from repro.libp2p.connmgr import (
    DEFAULT_GRACE_PERIOD,
    DEFAULT_HIGH_WATER,
    DEFAULT_LOW_WATER,
    ConnManagerConfig,
)

#: Agent versions of the clients the paper deployed.
GO_IPFS_011_DEV = "go-ipfs/0.11.0-dev/0c2f9d5"


@dataclass(frozen=True)
class IpfsConfig:
    """Configuration of a (measurement) go-ipfs node."""

    low_water: int = DEFAULT_LOW_WATER
    high_water: int = DEFAULT_HIGH_WATER
    grace_period: float = DEFAULT_GRACE_PERIOD
    dht_mode: DHTMode = DHTMode.SERVER
    agent_version: str = GO_IPFS_011_DEV
    swarm_port: int = 4001
    enable_bitswap: bool = True
    #: interval of the paper's measurement exporter (30 s for go-ipfs)
    poll_interval: float = 30.0

    def __post_init__(self) -> None:
        if self.low_water < 0 or self.high_water < self.low_water:
            raise ValueError("require 0 <= low_water <= high_water")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")

    def connmgr_config(self) -> ConnManagerConfig:
        return ConnManagerConfig(
            low_water=self.low_water,
            high_water=self.high_water,
            grace_period=self.grace_period,
        )

    @classmethod
    def defaults(cls) -> "IpfsConfig":
        """The stock go-ipfs configuration (LowWater 600 / HighWater 900)."""
        return cls()
