"""Configuration of the data-plane bandwidth model.

Until this subsystem existed a Bitswap "fetch" was a zero-size token riding
the netmodel RTT: heavy-traffic scenarios could not saturate anything.  The
bandwidth model gives every peer an up/down link drawn from a small set of
access classes (datacenter / fiber / cable / DSL / mobile), charges control
traffic (DHT RPCs, identify payloads) realistic byte counts, and serializes
Bitswap block transfers through per-peer FIFO transmit queues — so retrieval
latency decomposes into RTT + serialization (size / bandwidth) + queueing
delay.

Attach a :class:`BandwidthConfig` to ``PopulationConfig.bandwidth`` to
activate it; ``None`` (the default) keeps the zero-size fabric, draws nothing
from any RNG, and leaves every pre-existing fixed-seed golden byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: kilo/mega bytes per second, for readable class definitions
KB = 1_000.0
MB = 1_000_000.0


@dataclass(frozen=True)
class BandwidthClass:
    """One access class: a name, link rates in bytes/second, and its share."""

    name: str
    #: uplink rate (bytes/second) — the side that saturates first in practice
    up: float
    #: downlink rate (bytes/second)
    down: float
    #: share of the population drawn into this class (shares sum to 1)
    share: float


#: the access-class mix, loosely following consumer access-technology
#: surveys: a thin datacenter head, a broad cable/DSL middle, a mobile tail.
#: Uplinks are asymmetric (cable/DSL/mobile upload ≪ download), which is what
#: makes provider hotspots saturate.
CLASSES: Tuple[BandwidthClass, ...] = (
    BandwidthClass("datacenter", up=125 * MB, down=125 * MB, share=0.08),
    BandwidthClass("fiber", up=12.5 * MB, down=37.5 * MB, share=0.22),
    BandwidthClass("cable", up=2.5 * MB, down=25 * MB, share=0.35),
    BandwidthClass("dsl", up=750 * KB, down=6.25 * MB, share=0.25),
    BandwidthClass("mobile", up=300 * KB, down=2.5 * MB, share=0.10),
)


#: control-plane payload sizes (bytes): one DHT RPC's request and reply (a
#: FIND_NODE reply carries ~20 peers with multiaddrs), and one identify record
#: (agent, protocols, listen addrs)
RPC_REQUEST_BYTES = 256
RPC_RESPONSE_BYTES = 2048
IDENTIFY_BYTES = 2500

#: a retriever abandons a fetch whose RTT + queueing + serialization would
#: exceed this many seconds; this is what turns a saturated provider uplink
#: into retrieval *failures*
TRANSFER_TIMEOUT = 120.0

#: offsets this subsystem's RNG stream from the base seed (netmodel uses
#: 7000, faults 11000; the adversary's profile stream uses 9000 too)
SEED_SALT = 9000


@dataclass(frozen=True)
class BandwidthConfig:
    """Knobs of the data-plane model.

    ``uplink_scale`` multiplies every class's uplink rate — the sweepable
    "tighten all uplinks" knob regime benchmarks turn.
    """

    uplink_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.uplink_scale <= 0:
            raise ValueError(f"uplink_scale must be positive, got {self.uplink_scale}")
