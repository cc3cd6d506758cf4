"""Synthetic peer population.

The population generator produces a list of :class:`PeerProfile` objects whose
composition follows the shares the paper reports for its P4 data set
(Section IV.B, Section V, Table IV):

* behaviour classes heavy / normal / light / one-time in roughly 17/26/27/30 %
  proportions, with per-class DHT-Server shares,
* agent strings per Fig. 3 (go-ipfs releases, hydra, crawlers, storm, exotic
  agents, missing identify),
* multiaddress structure per Section V.A (NATed peers, shared IPs, hydra
  operators running ~100 heads per IP, one "PID farm" rotating thousands of
  PIDs behind a single IP),
* meta-data dynamics per Table III and Section IV.B (version up/downgrades,
  DHT-Server↔Client role flips, autonat flapping, PID rotation).

The profiles are *ground truth*; the measurement and analysis code never reads
them directly but must recover the aggregate picture from recorded
connections, which is exactly the paper's epistemic situation.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.kademlia.dht import DHTMode

if TYPE_CHECKING:  # pragma: no cover - type-only (profiles are built lazily)
    from repro.adversary.config import AdversaryConfig
    from repro.bandwidth.config import BandwidthConfig
    from repro.faults.config import FaultConfig
    from repro.netmodel.config import NetModelConfig
    from repro.obs.config import ObsConfig
    from repro.obs.spans import TraceConfig
from repro.libp2p.multiaddr import random_public_ipv4
from repro.libp2p.protocols import (
    crawler_protocols,
    goipfs_protocols,
    hydra_protocols,
    storm_protocols,
)
from repro.simulation.agents import AgentCatalog
from repro.simulation.churn_models import (
    HOUR,
    MINUTE,
    ChurnModel,
    SessionModel,
    always_on_session,
    light_session,
    normal_session,
    one_time_session,
)

#: what a peer whose identify never completed announces (one shared empty
#: set: ``frozenset()`` is a new object per call)
_NO_PROTOCOLS: FrozenSet[str] = frozenset()

#: builds the churn model for one general-population peer; receives the
#: peer's ground-truth class and the population RNG
ChurnModelFactory = Callable[["PeerClass", random.Random], ChurnModel]


class PeerClass(enum.Enum):
    """Ground-truth behaviour class (the paper's Table IV categories)."""

    HEAVY = "heavy"
    NORMAL = "normal"
    LIGHT = "light"
    ONE_TIME = "one-time"


class VersionBehavior(enum.Enum):
    """Whether and how a go-ipfs peer changes its agent version mid-measurement."""

    STABLE = "stable"
    UPGRADE = "upgrade"
    DOWNGRADE = "downgrade"
    CHANGE = "change"          # same release, different commit


@dataclass(slots=True)
class PeerProfile:
    """Ground-truth description of one simulated remote peer.

    One per peer, so the dataclass is slotted; ``protocols`` and
    ``session_model`` are shared immutable values (one object per distinct
    set / model, see :mod:`repro.libp2p.protocols` and the canonical session
    models of :mod:`repro.simulation.churn_models`).
    """

    peer_index: int
    peer_class: PeerClass
    role: DHTMode
    agent: Optional[str]
    protocols: FrozenSet[str]
    public_ip: str
    behind_nat: bool
    session_model: ChurnModel
    # identity management
    rotates_pid: bool = False              # fresh PID every session
    # meta-data dynamics
    version_behavior: VersionBehavior = VersionBehavior.STABLE
    flips_role: bool = False               # announces/retracts /ipfs/kad/1.0.0
    flips_autonat: bool = False            # announces/retracts autonat
    # special populations
    is_crawler: bool = False
    is_storm: bool = False
    is_hydra_head: bool = False
    hydra_operator: Optional[int] = None
    is_pid_farm: bool = False              # member of the single PID-rotating farm
    # connection behaviour knobs (used by the network model)
    keep_probability: float = 0.15         # remote "values" a connection to us
    reconnect_mean: float = 20 * MINUTE    # delay before re-dialling after a close
    discovery_mean: float = 4 * HOUR       # time to discover a measurement identity
    #: ground-truth attacker membership (one of repro.adversary.config's kind
    #: labels); ``None`` marks an honest peer.  The measurement/analysis side
    #: never reads this — only the attack report, which has ground truth.
    adversary_kind: Optional[str] = None

    @property
    def is_dht_server(self) -> bool:
        return self.role is DHTMode.SERVER

    @property
    def is_adversary(self) -> bool:
        return self.adversary_kind is not None


@dataclass
class PopulationConfig:
    """Knobs of the synthetic population.

    Defaults are calibrated to the paper's P4 data set; ``n_peers`` scales the
    whole population up or down (the paper saw ~62k connected PIDs, benchmarks
    default to a few thousand peers).
    """

    n_peers: int = 2000
    seed: int = 7

    # Behaviour-class shares (Table IV, normalised over 62'204 connected PIDs).
    class_shares: Dict[PeerClass, float] = field(
        default_factory=lambda: {
            PeerClass.HEAVY: 0.17,
            PeerClass.NORMAL: 0.255,
            PeerClass.LIGHT: 0.27,
            PeerClass.ONE_TIME: 0.305,
        }
    )
    # DHT-Server share within each class (Table IV).
    server_share_per_class: Dict[PeerClass, float] = field(
        default_factory=lambda: {
            PeerClass.HEAVY: 0.137,
            PeerClass.NORMAL: 0.089,
            PeerClass.LIGHT: 0.578,
            PeerClass.ONE_TIME: 0.323,
        }
    )

    # Agent composition (Section IV.B).
    goipfs_share: float = 0.763
    other_agent_share: float = 0.166
    missing_agent_share: float = 0.046
    storm_share_of_goipfs: float = 0.149   # 7'498 / 50'254
    crawler_share: float = 0.009           # 586 / 65'853

    # Multiaddress structure (Section V.A).
    nat_share: float = 0.45
    shared_ip_share: float = 0.10          # peers that share an IP with others
    peers_per_shared_ip: int = 4
    pid_farm_peers: int = 0                # peers in the single PID-farm IP (0 = scale-derived)
    hydra_operator_head_counts: Sequence[int] = (100, 98, 28)
    hydra_heads_scale: float = 1.0         # scales the operator head counts

    # Identity dynamics.
    pid_rotation_share: Dict[PeerClass, float] = field(
        default_factory=lambda: {
            PeerClass.HEAVY: 0.02,
            PeerClass.NORMAL: 0.10,
            PeerClass.LIGHT: 0.35,
            PeerClass.ONE_TIME: 0.15,
        }
    )

    # Meta-data dynamics (Table III / Section IV.B rates, expressed as the share
    # of go-ipfs peers exhibiting each behaviour over a ~3 day window).
    upgrade_share: float = 0.0045          # 218 / ~48k go-ipfs-ish peers
    downgrade_share: float = 0.0022
    commit_change_share: float = 0.0042
    role_flip_share: float = 0.04          # 2'481 / 62'204
    autonat_flip_share: float = 0.058      # 3'603 / 62'204

    # Connection-behaviour knobs.
    server_keep_probability: float = 0.35  # how often a remote keeps a conn to a DHT-Server

    #: overrides the per-class session models of the general population (the
    #: stress scenarios plug diurnal/flash-crowd/outage/trace models in here);
    #: ``None`` keeps the paper-calibrated class defaults
    churn_model_factory: Optional[ChurnModelFactory] = None
    #: multiplies every general-population peer's mean time-to-discover a
    #: measurement identity (< 1: peers find the vantage point faster, the
    #: flash-crowd regime; > 1: a poorly connected vantage point)
    discovery_scale: float = 1.0
    #: adversarial participants, added *on top of* the honest ``n_peers``
    #: (``None``, the default, adds none and draws nothing from any RNG, so
    #: every pre-existing fixed-seed golden stays byte-identical)
    adversary: Optional["AdversaryConfig"] = None
    #: network-conditions model (region latency, NAT/reachability, dial and
    #: lookup timeouts) the fabric runs under; ``None``, the default, keeps
    #: the idealised zero-latency fully-dialable fabric and draws nothing
    #: from any RNG, so every pre-existing fixed-seed golden stays
    #: byte-identical
    netmodel: Optional["NetModelConfig"] = None
    #: fault-injection model (message loss/duplication, crash/restart,
    #: partitions, slow nodes) plus its retry resilience; ``None``, the
    #: default, injects nothing and draws nothing from any RNG, so every
    #: pre-existing fixed-seed golden stays byte-identical
    faults: Optional["FaultConfig"] = None
    #: data-plane bandwidth model (per-peer link classes, block sizes,
    #: transmit queues); ``None``, the default, keeps the zero-size fabric
    #: and draws nothing from any RNG, so every pre-existing fixed-seed
    #: golden stays byte-identical
    bandwidth: Optional["BandwidthConfig"] = None
    #: streaming observability (windowed counters/gauges/histograms emitted
    #: during the run, JSONL export, ring buffer); ``None``, the default,
    #: observes nothing, schedules nothing, and draws nothing from any RNG,
    #: so every pre-existing fixed-seed golden stays byte-identical
    obs: Optional["ObsConfig"] = None
    #: causal span tracing (per-operation trace trees, deterministic
    #: sampling, ``traces.jsonl`` export); ``None``, the default, records
    #: nothing, schedules nothing, and draws nothing from any RNG, so every
    #: pre-existing fixed-seed golden stays byte-identical
    trace: Optional["TraceConfig"] = None

    def __post_init__(self) -> None:
        if self.n_peers <= 0:
            raise ValueError("n_peers must be positive")
        share_sum = sum(self.class_shares.values())
        if abs(share_sum - 1.0) > 1e-6:
            raise ValueError(f"class shares must sum to 1, got {share_sum}")
        if self.discovery_scale <= 0:
            raise ValueError(f"discovery_scale must be positive, got {self.discovery_scale}")

    @classmethod
    def scaled_to_paper(cls, n_peers: int, seed: int = 7) -> "PopulationConfig":
        """A config whose special populations scale with ``n_peers``.

        The paper's absolute P4 population is ~62k connected PIDs; hydra heads
        (1'026 on 11 IPs) and the PID farm (2'156 PIDs on one IP) are scaled by
        ``n_peers / 62'204`` so their *relative* footprint is preserved.
        """
        scale = n_peers / 62_204.0
        head_counts = tuple(
            max(2, int(round(c * scale))) for c in (100,) * 9 + (98, 28)
        )
        return cls(
            n_peers=n_peers,
            seed=seed,
            hydra_operator_head_counts=head_counts,
            pid_farm_peers=max(3, int(round(2_156 * scale))),
        )


@dataclass
class Population:
    """The generated population plus convenience accessors."""

    config: PopulationConfig
    profiles: List[PeerProfile]

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self):
        return iter(self.profiles)

    def servers(self) -> List[PeerProfile]:
        return [p for p in self.profiles if p.is_dht_server]

    def clients(self) -> List[PeerProfile]:
        return [p for p in self.profiles if not p.is_dht_server]

    def class_counts(self) -> Dict[PeerClass, int]:
        counts = {cls: 0 for cls in PeerClass}
        for profile in self.profiles:
            counts[profile.peer_class] += 1
        return counts

    def hydra_heads(self) -> List[PeerProfile]:
        return [p for p in self.profiles if p.is_hydra_head]

    def honest(self) -> List[PeerProfile]:
        return [p for p in self.profiles if not p.is_adversary]

    def ip_groups(self) -> Dict[str, List[PeerProfile]]:
        groups: Dict[str, List[PeerProfile]] = {}
        for profile in self.profiles:
            groups.setdefault(profile.public_ip, []).append(profile)
        return groups


# ---------------------------------------------------------------------------------


def default_session_model(peer_class: PeerClass, rng: random.Random) -> SessionModel:
    """The paper-calibrated stationary session model for one behaviour class."""
    if peer_class is PeerClass.HEAVY:
        return always_on_session()
    if peer_class is PeerClass.NORMAL:
        return normal_session()
    if peer_class is PeerClass.LIGHT:
        return light_session()
    return one_time_session(rng_sessions=1 if rng.random() < 0.7 else 2)


def _sample_class(config: PopulationConfig, rng: random.Random) -> PeerClass:
    roll = rng.random()
    cumulative = 0.0
    for peer_class, share in config.class_shares.items():
        cumulative += share
        if roll <= cumulative:
            return peer_class
    return PeerClass.ONE_TIME


def _connection_knobs(
    peer_class: PeerClass, config: PopulationConfig, rng: random.Random
) -> Tuple[float, float, float]:
    """Return (keep_probability, reconnect_mean, discovery_mean) per class."""
    if peer_class is PeerClass.HEAVY:
        return (
            min(1.0, config.server_keep_probability * 2.0),
            rng.uniform(5 * MINUTE, 30 * MINUTE),
            rng.uniform(30 * MINUTE, 4 * HOUR),
        )
    if peer_class is PeerClass.NORMAL:
        return (
            config.server_keep_probability,
            rng.uniform(10 * MINUTE, 60 * MINUTE),
            rng.uniform(1 * HOUR, 8 * HOUR),
        )
    if peer_class is PeerClass.LIGHT:
        return (
            config.server_keep_probability * 0.4,
            rng.uniform(2 * MINUTE, 20 * MINUTE),
            rng.uniform(10 * MINUTE, 2 * HOUR),
        )
    return (
        config.server_keep_probability * 0.2,
        rng.uniform(30 * MINUTE, 2 * HOUR),
        rng.uniform(10 * MINUTE, 4 * HOUR),
    )


def generate_population(
    config: PopulationConfig, rng: Optional[random.Random] = None
) -> Population:
    """Generate the synthetic population described by ``config``."""
    rng = rng or random.Random(config.seed)
    catalog = AgentCatalog(rng)
    profiles: List[PeerProfile] = []
    index = 0

    # -- hydra operators: blocks of heads sharing one IP each ----------------------
    # The special populations are capped relative to n_peers so that a small
    # test population is never swallowed whole by hydra heads (the paper's
    # live network has ~1.6 % hydra heads).
    head_counts = [
        max(1, int(round(c * config.hydra_heads_scale)))
        for c in config.hydra_operator_head_counts
    ]
    max_heads_total = max(2, int(round(config.n_peers * 0.018)))
    heads_added = 0
    for operator, head_count in enumerate(head_counts):
        operator_ip = random_public_ipv4(rng)
        for _ in range(head_count):
            if index >= config.n_peers or heads_added >= max_heads_total:
                break
            profiles.append(
                PeerProfile(
                    peer_index=index,
                    peer_class=PeerClass.HEAVY,
                    role=DHTMode.SERVER,
                    agent=catalog.hydra_agent(),
                    protocols=hydra_protocols(),
                    public_ip=operator_ip,
                    behind_nat=False,
                    session_model=always_on_session(),
                    keep_probability=0.8,
                    reconnect_mean=10 * MINUTE,
                    discovery_mean=1 * HOUR,
                    is_hydra_head=True,
                    hydra_operator=operator,
                )
            )
            index += 1
            heads_added += 1

    # -- the PID-rotating farm ------------------------------------------------------
    farm_size = config.pid_farm_peers
    if farm_size <= 0:
        farm_size = max(3, int(round(config.n_peers * 0.035)))
    farm_size = min(farm_size, max(3, int(round(config.n_peers * 0.05))))
    farm_ip = random_public_ipv4(rng)
    farm_agent = catalog.make_goipfs_agent(release="0.10.0")
    for _ in range(farm_size):
        if index >= config.n_peers:
            break
        profiles.append(
            PeerProfile(
                peer_index=index,
                peer_class=PeerClass.LIGHT,
                role=DHTMode.CLIENT,
                agent=farm_agent,
                protocols=goipfs_protocols(dht_server=False),
                public_ip=farm_ip,
                behind_nat=False,
                session_model=light_session(),
                rotates_pid=True,
                keep_probability=0.05,
                reconnect_mean=10 * MINUTE,
                discovery_mean=30 * MINUTE,
                is_pid_farm=True,
            )
        )
        index += 1

    # -- crawler agents ---------------------------------------------------------------
    crawler_count = max(1, int(round(config.n_peers * config.crawler_share)))
    for _ in range(crawler_count):
        if index >= config.n_peers:
            break
        profiles.append(
            PeerProfile(
                peer_index=index,
                peer_class=PeerClass.LIGHT,
                role=DHTMode.CLIENT,
                agent=catalog.sample_crawler_agent(),
                protocols=crawler_protocols(),
                public_ip=random_public_ipv4(rng),
                behind_nat=False,
                session_model=always_on_session(),
                keep_probability=0.0,
                reconnect_mean=2 * HOUR,
                discovery_mean=2 * HOUR,
                is_crawler=True,
            )
        )
        index += 1

    # -- shared-IP pools (small cloud providers, CGNAT) -------------------------------
    shared_ip_pool: List[str] = []
    n_shared_ips = max(
        1, int(round(config.n_peers * config.shared_ip_share / max(1, config.peers_per_shared_ip)))
    )
    for _ in range(n_shared_ips):
        shared_ip_pool.append(random_public_ipv4(rng))

    # -- the general population ---------------------------------------------------------
    churn_factory = config.churn_model_factory or default_session_model
    while index < config.n_peers:
        peer_class = _sample_class(config, rng)
        server_share = config.server_share_per_class[peer_class]
        is_server = rng.random() < server_share
        role = DHTMode.SERVER if is_server else DHTMode.CLIENT
        sample = catalog.sample(
            goipfs_share=config.goipfs_share,
            other_share=config.other_agent_share,
            missing_share=config.missing_agent_share,
            storm_share=config.storm_share_of_goipfs,
        )
        if sample.is_storm:
            protocols = storm_protocols(dht_server=is_server)
        elif sample.is_goipfs:
            protocols = goipfs_protocols(dht_server=is_server)
        elif sample.agent is None:
            # Identify never completed: protocols unknown as well.
            protocols = _NO_PROTOCOLS
        else:
            protocols = goipfs_protocols(
                dht_server=is_server, bitswap=rng.random() < 0.5, modern=False
            )

        behind_nat = (not is_server) and rng.random() < config.nat_share
        if rng.random() < config.shared_ip_share and shared_ip_pool:
            public_ip = rng.choice(shared_ip_pool)
        else:
            public_ip = random_public_ipv4(rng)

        keep, reconnect_mean, discovery_mean = _connection_knobs(peer_class, config, rng)
        # Applied outside the rng draws so the default of 1.0 leaves the
        # draw sequence — and therefore every fixed-seed golden — unchanged.
        discovery_mean *= config.discovery_scale

        version_behavior = VersionBehavior.STABLE
        if sample.is_goipfs:
            roll = rng.random()
            if roll < config.upgrade_share:
                version_behavior = VersionBehavior.UPGRADE
            elif roll < config.upgrade_share + config.downgrade_share:
                version_behavior = VersionBehavior.DOWNGRADE
            elif roll < config.upgrade_share + config.downgrade_share + config.commit_change_share:
                version_behavior = VersionBehavior.CHANGE

        profiles.append(
            PeerProfile(
                peer_index=index,
                peer_class=peer_class,
                role=role,
                agent=sample.agent,
                protocols=protocols,
                public_ip=public_ip,
                behind_nat=behind_nat,
                session_model=churn_factory(peer_class, rng),
                rotates_pid=rng.random() < config.pid_rotation_share[peer_class],
                version_behavior=version_behavior,
                flips_role=is_server and rng.random() < config.role_flip_share,
                flips_autonat=rng.random() < config.autonat_flip_share,
                is_storm=sample.is_storm,
                keep_probability=keep,
                reconnect_mean=reconnect_mean,
                discovery_mean=discovery_mean,
            )
        )
        index += 1

    # -- adversarial participants (on top of the honest population) ------------------
    if config.adversary is not None:
        # Imported lazily: the adversary package is only loaded when a
        # scenario actually deploys attackers.
        from repro.adversary.profiles import build_adversary_profiles

        profiles.extend(
            build_adversary_profiles(config.adversary, start_index=index, seed=config.seed)
        )

    return Population(config=config, profiles=profiles)
