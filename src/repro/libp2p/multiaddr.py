"""Multiaddresses.

libp2p expresses transport addresses as self-describing "multiaddrs", e.g.
``/ip4/147.75.80.1/tcp/4001`` or ``/ip4/10.0.0.2/udp/4001/quic``.  The paper's
network-size estimation (Section V.A) groups PIDs by the IP component of the
multiaddr they connected from, so the reproduction needs parsing, rendering and
IP extraction, plus the private-address classification used to model NATed
peers.
"""

from __future__ import annotations

import functools
import ipaddress
import random
from typing import List, Optional, Tuple

_KNOWN_PROTOCOLS = {
    "ip4": 1,
    "ip6": 1,
    "dns4": 1,
    "dns6": 1,
    "tcp": 1,
    "udp": 1,
    "quic": 0,
    "quic-v1": 0,
    "ws": 0,
    "wss": 0,
    "p2p": 1,
    "ipfs": 1,
    "p2p-circuit": 0,
}


@functools.cache
def _port_component(proto: str, port: int) -> Tuple[str, str]:
    """One shared ``(proto, "port")`` component per transport and port."""
    return (proto, str(port))


class Multiaddr:
    """An immutable multiaddress composed of (protocol, value) components.

    Every simulated peer advertises several, so the class is slotted and the
    addresses built by :meth:`tcp` / :meth:`quic` share their port component
    (and the constant ``("quic", None)``); only the IP component is per
    address.
    """

    __slots__ = ("components", "_str")

    def __init__(self, components: Tuple[Tuple[str, Optional[str]], ...]) -> None:
        init = object.__setattr__
        init(self, "components", components)
        #: the rendering, memoised by ``__str__``: connection records render
        #: the same few addresses over and over during dataset finalisation
        init(self, "_str", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Multiaddr is immutable (cannot set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Multiaddr is immutable (cannot delete {name!r})")

    def __reduce__(self):
        return Multiaddr, (self.components,)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Multiaddr):
            return self.components == other.components
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.components)

    @classmethod
    def parse(cls, text: str) -> "Multiaddr":
        """Parse a slash-delimited multiaddr string."""
        if not text.startswith("/"):
            raise ValueError(f"multiaddr must start with '/': {text!r}")
        parts = [p for p in text.split("/") if p != ""]
        components: List[Tuple[str, Optional[str]]] = []
        i = 0
        while i < len(parts):
            proto = parts[i]
            if proto not in _KNOWN_PROTOCOLS:
                raise ValueError(f"unknown multiaddr protocol: {proto!r}")
            arity = _KNOWN_PROTOCOLS[proto]
            if arity == 0:
                components.append((proto, None))
                i += 1
            else:
                if i + 1 >= len(parts):
                    raise ValueError(f"protocol {proto!r} expects a value")
                components.append((proto, parts[i + 1]))
                i += 2
        return cls(tuple(components))

    @classmethod
    def tcp(cls, ip: str, port: int = 4001) -> "Multiaddr":
        family = "ip6" if ":" in ip else "ip4"
        return cls(((family, ip), _port_component("tcp", port)))

    @classmethod
    def quic(cls, ip: str, port: int = 4001) -> "Multiaddr":
        family = "ip6" if ":" in ip else "ip4"
        return cls(((family, ip), _port_component("udp", port), ("quic", None)))

    def ip(self) -> Optional[str]:
        """Return the first IP (or DNS name) component's value, if any."""
        for proto, value in self.components:
            if proto in ("ip4", "ip6", "dns4", "dns6"):
                return value
        return None

    def port(self) -> Optional[int]:
        for proto, value in self.components:
            if proto in ("tcp", "udp") and value is not None:
                return int(value)
        return None

    def is_private(self) -> bool:
        """True when the IP component is a private / loopback / link-local address."""
        ip = self.ip()
        if ip is None:
            return False
        try:
            addr = ipaddress.ip_address(ip)
        except ValueError:
            return False
        return addr.is_private or addr.is_loopback or addr.is_link_local

    def __str__(self) -> str:
        cached = self._str
        if cached is not None:
            return cached
        parts: List[str] = []
        for proto, value in self.components:
            parts.append(proto)
            if value is not None:
                parts.append(value)
        rendered = "/" + "/".join(parts)
        object.__setattr__(self, "_str", rendered)
        return rendered

    def __repr__(self) -> str:
        return f"Multiaddr({str(self)!r})"


#: First octets under which every private / loopback / link-local / reserved
#: IPv4 block lives (multicast and class E start at 224, above the draw).  Any
#: other first octet is globally routable whatever follows; these fall through
#: to ``ipaddress``, whose block list differs between interpreter versions.
_CHECKED_FIRST_OCTETS = frozenset((10, 100, 127, 169, 172, 192, 198, 203))


def random_public_ipv4(rng: random.Random) -> str:
    """Draw a random globally-routable IPv4 address."""
    randint = rng.randint
    while True:
        first = randint(1, 223)
        text = "%d.%d.%d.%d" % (first, randint(0, 255), randint(0, 255), randint(1, 254))
        if first not in _CHECKED_FIRST_OCTETS:
            return text
        addr = ipaddress.ip_address(text)
        if not (addr.is_private or addr.is_loopback or addr.is_multicast
                or addr.is_link_local or addr.is_reserved):
            return text


def random_private_ipv4(rng: random.Random) -> str:
    """Draw a random RFC1918 address (used for NATed peers' self-reported addrs)."""
    pick = rng.random()
    if pick < 0.5:
        return f"192.168.{rng.randint(0, 255)}.{rng.randint(1, 254)}"
    if pick < 0.8:
        return f"10.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}"
    return f"172.{rng.randint(16, 31)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}"


def advertised_addrs(
    private_ips: Tuple[str, str], public_ip: str, behind_nat: bool
) -> Tuple[Multiaddr, ...]:
    """Build a plausible advertised address list for a peer.

    go-ipfs nodes usually advertise a private listen address plus (when not
    NATed or after hole punching) their public address, over both TCP and QUIC.
    ``private_ips`` are the peer's TCP and QUIC listen IPs
    (:func:`random_private_ipv4` draws).  The result is a tuple, so identify
    records and peerstore entries hold it as is instead of copying it.
    """
    tcp_ip, quic_ip = private_ips
    addrs = (Multiaddr.tcp(tcp_ip), Multiaddr.quic(quic_ip))
    if behind_nat:
        return addrs
    return addrs + (Multiaddr.tcp(public_ip), Multiaddr.quic(public_ip))
