"""Configuration of the network-realism subsystem.

The paper's passive measurements ran against the real Internet: every RPC
paid a region-dependent round trip, a large share of peers sat behind NATs
the crawler could not dial, and some were reachable only through relays.
The simulator idealised all of that away — every peer instantly dialable,
every RPC free — which makes crawler coverage, connection durations, and
retrieval latencies structurally too good.

A :class:`NetModelConfig` attached to
:class:`~repro.simulation.population.PopulationConfig.netmodel` drops that
idealisation.  It has two parts:

* a **region/latency model** — peers are assigned to geographic regions with
  an inter-region RTT matrix and per-peer jitter, so every DHT RPC, identify
  exchange, and Bitswap fetch accrues simulated latency (``rtt_scale``
  multiplies every RTT);
* a **reachability model** — each peer is drawn as ``public`` (dialable),
  ``nat`` (inbound-only: it can dial the vantage point but nobody can dial
  it), or ``relayed`` (dialable at a relay-latency penalty).  Dial attempts
  to NATed peers fail after :data:`DIAL_TIMEOUT` simulated seconds, and
  iterative walks give up once ``lookup_timeout`` of simulated time is
  spent — which is what bounds crawls and lookups the way real deployments
  are bounded.

Everything is identity-by-default: ``netmodel=None`` (the default) assigns
nothing, draws nothing from any RNG, and leaves every pre-existing
fixed-seed golden byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

#: reachability class labels (PeerNet.reachability / NetModelStats keys)
PUBLIC = "public"
NAT = "nat"
RELAYED = "relayed"

#: the region set, weighted roughly like the live network's continents; index
#: order keys the weights and the RTT matrix
REGIONS: Tuple[str, ...] = ("eu", "na", "ap", "sa", "af")
REGION_WEIGHTS: Tuple[float, ...] = (0.35, 0.30, 0.22, 0.08, 0.05)

#: symmetric base round-trip times between regions (seconds)
RTT_MATRIX: Tuple[Tuple[float, ...], ...] = (
    # eu     na     ap     sa     af
    (0.030, 0.090, 0.160, 0.120, 0.100),  # eu
    (0.090, 0.040, 0.130, 0.100, 0.150),  # na
    (0.160, 0.130, 0.050, 0.180, 0.170),  # ap
    (0.120, 0.100, 0.180, 0.040, 0.190),  # sa
    (0.100, 0.150, 0.170, 0.190, 0.060),  # af
)


#: per-peer multiplicative jitter amplitude: each peer draws a personal factor
#: in [1 - JITTER, 1 + JITTER] applied to every RTT it is part of
JITTER = 0.25

#: simulated seconds a failed dial burns before giving up
DIAL_TIMEOUT = 5.0

#: decouples the netmodel RNG stream from every honest stream, so attaching a
#: netmodel never perturbs honest draws
SEED_SALT = 7000


@dataclass(frozen=True)
class ReachabilityConfig:
    """NAT/relay composition and dial semantics."""

    #: share of peers behind a NAT (inbound-only; direct dials to them fail).
    #: Peers whose ground-truth profile already says ``behind_nat`` are NATed
    #: regardless; this share applies on top, to everyone else.
    nat_share: float = 0.30
    #: share of peers reachable only via a circuit relay (dialable, slower)
    relay_share: float = 0.10
    #: RTT multiplier of any path with a relayed endpoint
    relay_penalty: float = 2.2

    def __post_init__(self) -> None:
        for name in ("nat_share", "relay_share"):
            share = getattr(self, name)
            if not 0.0 <= share <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {share}")
        if self.nat_share + self.relay_share > 1.0:
            raise ValueError(
                "nat_share + relay_share must be <= 1, got "
                f"{self.nat_share} + {self.relay_share}"
            )
        if self.relay_penalty < 1.0:
            raise ValueError(f"relay_penalty must be >= 1, got {self.relay_penalty}")


@dataclass(frozen=True)
class NetModelConfig:
    """The full network-conditions model a scenario runs under."""

    #: global RTT multiplier (high-latency scenarios crank this)
    rtt_scale: float = 1.0
    reachability: ReachabilityConfig = field(default_factory=ReachabilityConfig)
    #: simulated-time budget of one iterative walk; a walk stops expanding
    #: once it has spent this much accrued RTT/dial time (``None``: unbounded)
    lookup_timeout: Optional[float] = 45.0

    def __post_init__(self) -> None:
        if self.rtt_scale <= 0:
            raise ValueError(f"rtt_scale must be positive, got {self.rtt_scale}")
        if self.lookup_timeout is not None and self.lookup_timeout <= 0:
            raise ValueError(
                f"lookup_timeout must be positive or None, got {self.lookup_timeout}"
            )
