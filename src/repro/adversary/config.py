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

# Time constants duplicated from repro.simulation.churn_models: importing any
# repro.simulation module would pull the whole simulation package (its
# __init__ imports the scenario wiring, which imports this package back).
DAY = 86_400.0
HOUR = 3_600.0
MINUTE = 60.0

#: attacker-kind labels (PeerProfile.adversary_kind / AttackStats keys)
SYBIL = "sybil"
ECLIPSE = "eclipse"
POISONER = "poisoner"
DROPPER = "dropper"
CHURN_SPOOFER = "churn-spoofer"


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
    #: sybils re-dial quickly and value the vantage-point connection
    keep_probability: float = 0.6
    discovery_mean: float = 20 * MINUTE
    #: whether sybils announce /ipfs/kad/1.0.0 (servers enter neighbourhoods)
    act_as_server: bool = True

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
        if not 0.0 <= self.keep_probability <= 1.0:
            raise ValueError(f"keep_probability must be in [0, 1], got {self.keep_probability}")
        if self.discovery_mean <= 0:
            raise ValueError(f"discovery_mean must be positive, got {self.discovery_mean}")


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
    #: captured records are acknowledged but never served
    capture_records: bool = True
    #: replies to victim-key queries name only fellow attackers as closer peers
    shadow_closer_peers: bool = True
    #: interval of the active shadow-record publishing loop (bogus provider
    #: records naming eclipse nodes, pushed onto honest servers so retrievers
    #: waste their provider budget on non-serving peers); ``None`` disables it
    shadow_publish_interval: Optional[float] = None
    #: extra replicas past the eclipse ring a shadow publish spills onto
    shadow_spill: int = 5

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
        if self.shadow_spill < 0:
            raise ValueError(f"shadow_spill must be >= 0, got {self.shadow_spill}")


@dataclass(frozen=True)
class RoutingPoisonConfig:
    """Malicious DHT servers that poison or drop routing queries."""

    #: malicious servers added on top of the honest population
    count: int = 24
    #: share of them that silently drop queries (the rest poison replies)
    drop_share: float = 0.5
    #: fabricated closer-peers per poisoned reply (unreachable PIDs mined
    #: near the query target, crowding real candidates out of the walk)
    bogus_peers_per_reply: int = 8
    #: leading target-key bits a fabricated PID shares (closer than anything
    #: real, so walks chase ghosts first)
    closeness_bits: int = 20
    #: probability that a poisoner poisons a given reply (else honest answer)
    poison_probability: float = 0.9

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError(f"poisoner count must be positive, got {self.count}")
        if not 0.0 <= self.drop_share <= 1.0:
            raise ValueError(f"drop_share must be in [0, 1], got {self.drop_share}")
        if self.bogus_peers_per_reply < 0:
            raise ValueError(
                f"bogus_peers_per_reply must be >= 0, got {self.bogus_peers_per_reply}"
            )
        if not 0 <= self.closeness_bits <= 64:
            raise ValueError(
                f"closeness_bits must be within [0, 64], got {self.closeness_bits}"
            )
        if not 0.0 <= self.poison_probability <= 1.0:
            raise ValueError(
                f"poison_probability must be in [0, 1], got {self.poison_probability}"
            )


@dataclass(frozen=True)
class ChurnSpoofConfig:
    """Aggressive PID rotation distorting the passive churn classification."""

    #: spoofing peers added on top of the honest population
    count: int = 30
    #: mean session length (every session starts under a fresh PID)
    session_mean: float = 12 * MINUTE
    #: mean pause between sessions
    downtime_mean: float = 8 * MINUTE
    #: spoofers seek the vantage point quickly so every fresh PID is observed
    discovery_mean: float = 15 * MINUTE

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError(f"spoofer count must be positive, got {self.count}")
        for name in ("session_mean", "downtime_mean", "discovery_mean"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class AdversaryConfig:
    """Which attacks run, with what strength.

    Any subset of the four blocks may be enabled; ``None`` blocks add no
    attackers.  ``seed_salt`` decouples the adversary RNG stream from every
    honest stream, so enabling an attack never perturbs honest draws.
    """

    sybil: Optional[SybilFloodConfig] = None
    eclipse: Optional[EclipseConfig] = None
    poison: Optional[RoutingPoisonConfig] = None
    churn_spoof: Optional[ChurnSpoofConfig] = None
    seed_salt: int = 9000
    #: cap on the recorded attack-event stream (oldest kept; excess counted)
    max_events: int = 20_000

    def __post_init__(self) -> None:
        if self.max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {self.max_events}")
        if not self.enabled():
            raise ValueError("AdversaryConfig needs at least one attack block")

    def enabled(self) -> bool:
        return any((self.sybil, self.eclipse, self.poison, self.churn_spoof))


#: re-exported for catalog builders (sybil uptime etc. live here so the
#: attacker profile module stays the single consumer)
SYBIL_UPTIME = 30 * DAY
