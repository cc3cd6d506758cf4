"""Protocol identifiers and protocol-set helpers.

Fig. 4 of the paper counts the occurrences of supported protocol strings across
all observed peers, and Section IV.B reasons about combinations (go-ipfs agents
without Bitswap, storm nodes announcing ``/sbptp/1.0.0``, role flips visible as
``/ipfs/kad/1.0.0`` appearing/disappearing).  This module centralises the
protocol ID strings and provides the canonical protocol sets announced by the
client types the paper observes.
"""

from __future__ import annotations

import functools
from typing import FrozenSet

# Core IPFS / libp2p protocols seen in Fig. 4.
IPFS_ID = "/ipfs/id/1.0.0"
IPFS_ID_PUSH = "/ipfs/id/push/1.0.0"
IPFS_PING = "/ipfs/ping/1.0.0"
KAD_DHT = "/ipfs/kad/1.0.0"
LAN_KAD_DHT = "/ipfs/lan/kad/1.0.0"
BITSWAP = "/ipfs/bitswap"
BITSWAP_100 = "/ipfs/bitswap/1.0.0"
BITSWAP_110 = "/ipfs/bitswap/1.1.0"
BITSWAP_120 = "/ipfs/bitswap/1.2.0"
AUTONAT = "/libp2p/autonat/1.0.0"
RELAY_V1 = "/libp2p/circuit/relay/0.1.0"
RELAY_V2_STOP = "/libp2p/circuit/relay/0.2.0/stop"
FETCH = "/libp2p/fetch/0.0.1"
ID_DELTA = "/p2p/id/delta/1.0.0"
FLOODSUB = "/floodsub/1.0.0"
MESHSUB_100 = "/meshsub/1.0.0"
MESHSUB_110 = "/meshsub/1.1.0"
X_PROTOCOL = "/x/"

# Protocols specific to anomalous or exotic agents mentioned in the paper.
SBPTP = "/sbptp/1.0.0"           # announced by storm botnet nodes
SFST_1 = "/sfst/1.0.0"
SFST_2 = "/sfst/2.0.0"

BITSWAP_PROTOCOLS: FrozenSet[str] = frozenset(
    {BITSWAP, BITSWAP_100, BITSWAP_110, BITSWAP_120}
)


# Every simulated peer announces one of a handful of protocol sets, so the
# helpers below hand out one shared frozenset per distinct set instead of a
# fresh copy per peer.


@functools.cache
def shared_protocols(protocols: FrozenSet[str]) -> FrozenSet[str]:
    """The one shared instance of ``protocols``: equal sets are one object.

    Its domain is finite: the sets the helpers below produce, each with or
    without ``/ipfs/kad/1.0.0`` and autonat.
    """
    return protocols


_BASELINE: FrozenSet[str] = shared_protocols(
    frozenset(
        {
            IPFS_ID,
            IPFS_ID_PUSH,
            IPFS_PING,
            RELAY_V1,
            AUTONAT,
            FLOODSUB,
            MESHSUB_100,
            MESHSUB_110,
            ID_DELTA,
        }
    )
)
_HYDRA: FrozenSet[str] = shared_protocols(frozenset({IPFS_ID, IPFS_PING, KAD_DHT}))
_CRAWLER: FrozenSet[str] = shared_protocols(frozenset({IPFS_ID, IPFS_PING}))


def baseline_protocols() -> FrozenSet[str]:
    """Protocols announced by essentially every go-ipfs-like client."""
    return _BASELINE


@functools.cache
def goipfs_protocols(
    dht_server: bool = True,
    bitswap: bool = True,
    modern: bool = True,
) -> FrozenSet[str]:
    """Return the protocol set a go-ipfs client announces.

    ``dht_server`` adds ``/ipfs/kad/1.0.0`` (the paper uses exactly this to
    identify DHT-Server nodes), ``bitswap`` adds the Bitswap family, ``modern``
    adds protocols only present in recent releases (relay v2 stop, fetch).
    """
    protocols = set(baseline_protocols())
    protocols.add(LAN_KAD_DHT)
    if dht_server:
        protocols.add(KAD_DHT)
    if bitswap:
        protocols.update(BITSWAP_PROTOCOLS)
    if modern:
        protocols.update({RELAY_V2_STOP, FETCH, X_PROTOCOL})
    return shared_protocols(frozenset(protocols))


def hydra_protocols() -> FrozenSet[str]:
    """Hydra heads serve the DHT and identify/ping but no Bitswap."""
    return _HYDRA


def crawler_protocols() -> FrozenSet[str]:
    """Crawlers typically only speak identify + DHT client messages."""
    return _CRAWLER


@functools.cache
def storm_protocols(dht_server: bool = True) -> FrozenSet[str]:
    """IPStorm botnet nodes announce custom protocols instead of Bitswap;
    ``dht_server`` adds ``/ipfs/kad/1.0.0`` as for go-ipfs."""
    protocols = set(baseline_protocols())
    protocols.update({SBPTP, SFST_1, SFST_2})
    protocols.discard(FLOODSUB)
    if dht_server:
        protocols.add(KAD_DHT)
    return shared_protocols(frozenset(protocols))


def supports_bitswap(protocols: FrozenSet[str]) -> bool:
    return not BITSWAP_PROTOCOLS.isdisjoint(protocols)


def supports_dht_server(protocols: FrozenSet[str]) -> bool:
    return KAD_DHT in protocols
