"""Configuration of the adversarial subsystem.

The paper's passive churn and network-size measurements implicitly assume
honest peers: every observed PID is a participant, every announced protocol
set is truthful, every DHT reply is a best-effort answer.  The adversary
subsystem drops that assumption.  An :class:`AdversaryConfig` attached to a
:class:`~repro.simulation.population.PopulationConfig` adds attacker peers *on
top of* the honest ``n_peers`` population (so the honest ground truth stays
comparable) and activates malicious response paths in the network fabric.

Four attack families are modelled, each with its own config block:

* **Sybil flood** — cheap mass identities mined into the measurement
  identity's Kademlia neighbourhood.  They inflate the observed-PID count and
  wreck neighbourhood-density network-size estimates (the estimator reads a
  packed neighbourhood as "the whole keyspace is this dense").
* **Eclipse** — attacker IDs mined around victim content keys.  They soak up
  provider records (publishers believe the PROVIDE succeeded) and answer
  GET_PROVIDERS with no providers and only fellow attackers as closer peers.
* **Routing poisoning / query dropping** — malicious DHT servers that return
  fabricated closer-peers (unreachable PIDs ground near the target) or
  silently drop FIND_NODE / GET_PROVIDERS, burning lookup budgets.
* **Churn spoofing** — aggressive PID rotation over short sessions, flooding
  the passive vantage point with fresh PIDs that the Table IV classification
  files under one-time/light peers.

Everything is identity-by-default: ``adversary=None`` (the default) generates
no attacker profiles, draws nothing from any RNG, and leaves every
pre-existing fixed-seed golden byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.simulation.churn_models import DAY, HOUR, MINUTE

#: attacker-kind labels (PeerProfile.adversary_kind / AttackStats keys)
SYBIL = "sybil"
ECLIPSE = "eclipse"
POISONER = "poisoner"
DROPPER = "dropper"
CHURN_SPOOFER = "churn-spoofer"

#: added to the population seed for the attacker-profile stream, so enabling
#: an attack never perturbs an honest draw
SEED_SALT = 9000


@dataclass(frozen=True)
class SybilFloodConfig:
    """A flood of cheap identities mined near the measurement identity."""

    #: sybil identities added on top of the honest population
    count: int = 40
    #: leading bits of the target key a mined PID shares (cheap key grinding;
    #: every matched bit halves the sybil's distance to the vantage point)
    closeness_bits: int = 12
    #: absolute join window (seconds): sybils come online spread over it
    arrival_window: Tuple[float, float] = (10 * MINUTE, 4 * HOUR)

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError(f"sybil count must be positive, got {self.count}")
        if not 0 <= self.closeness_bits <= 64:
            raise ValueError(
                f"closeness_bits must be within [0, 64], got {self.closeness_bits}"
            )
        low, high = self.arrival_window
        if low < 0 or high < low:
            raise ValueError(f"arrival_window must satisfy 0 <= low <= high, got {low}/{high}")


@dataclass(frozen=True)
class EclipseConfig:
    """Attacker servers mined around victim content keys."""

    #: eclipse identities (spread round-robin over the victim keys)
    count: int = 20
    #: how many of the hottest catalog items are attacked
    victim_items: int = 2
    #: leading bits of the victim key a mined PID shares — high enough that
    #: every attacker sits closer to the key than any honest server
    closeness_bits: int = 24
    #: interval of the active shadow-record publishing loop (bogus provider
    #: records naming eclipse nodes, pushed onto honest servers so retrievers
    #: waste their provider budget on non-serving peers); ``None`` disables it
    shadow_publish_interval: Optional[float] = None

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError(f"eclipse count must be positive, got {self.count}")
        if self.victim_items <= 0:
            raise ValueError(f"victim_items must be positive, got {self.victim_items}")
        if not 0 <= self.closeness_bits <= 64:
            raise ValueError(
                f"closeness_bits must be within [0, 64], got {self.closeness_bits}"
            )
        if self.shadow_publish_interval is not None and self.shadow_publish_interval <= 0:
            raise ValueError(
                "shadow_publish_interval must be positive or None, "
                f"got {self.shadow_publish_interval}"
            )


@dataclass(frozen=True)
class RoutingPoisonConfig:
    """Malicious DHT servers that poison or drop routing queries."""

    #: malicious servers added on top of the honest population
    count: int = 24
    #: share of them that silently drop queries (the rest poison replies)
    drop_share: float = 0.5

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError(f"poisoner count must be positive, got {self.count}")
        if not 0.0 <= self.drop_share <= 1.0:
            raise ValueError(f"drop_share must be in [0, 1], got {self.drop_share}")


@dataclass(frozen=True)
class ChurnSpoofConfig:
    """Aggressive PID rotation distorting the passive churn classification."""

    #: spoofing peers added on top of the honest population
    count: int = 30
    #: mean session length (every session starts under a fresh PID)
    session_mean: float = 12 * MINUTE
    #: mean pause between sessions
    downtime_mean: float = 8 * MINUTE

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError(f"spoofer count must be positive, got {self.count}")
        for name in ("session_mean", "downtime_mean"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class AdversaryConfig:
    """Which attacks run, with what strength.

    Any subset of the four blocks may be enabled; ``None`` blocks add no
    attackers.
    """

    sybil: Optional[SybilFloodConfig] = None
    eclipse: Optional[EclipseConfig] = None
    poison: Optional[RoutingPoisonConfig] = None
    churn_spoof: Optional[ChurnSpoofConfig] = None

    def __post_init__(self) -> None:
        if not self.enabled():
            raise ValueError("AdversaryConfig needs at least one attack block")

    def enabled(self) -> bool:
        return any((self.sybil, self.eclipse, self.poison, self.churn_spoof))


#: re-exported for catalog builders (sybil uptime etc. live here so the
#: attacker profile module stays the single consumer)
SYBIL_UPTIME = 30 * DAY
