"""Attacker peer profiles.

Attacker peers ride on the exact same population / session / fabric machinery
as honest peers — a Sybil is "just" a profile with a mined PID and an arrival
schedule, a churn spoofer is "just" a short-session profile that rotates its
PID every session.  :func:`build_adversary_profiles` appends them *after* the
honest ``n_peers`` profiles (indices ``n_peers ..``) from a dedicated RNG
stream, so the honest population is byte-identical with and without an
adversary attached.

Ground-truth attacker membership is recorded on the profile
(``adversary_kind``); the measurement side never reads it — recovering the
distortion from recorded connections alone is exactly the epistemic situation
a real passive measurement is in, and what
:mod:`repro.analysis.attack_report` quantifies with ground truth in hand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.adversary.config import (
    CHURN_SPOOFER,
    DROPPER,
    ECLIPSE,
    POISONER,
    SEED_SALT,
    SYBIL,
    SYBIL_UPTIME,
    AdversaryConfig,
)
from repro.kademlia.dht import DHTMode
from repro.libp2p.multiaddr import random_public_ipv4
from repro.libp2p.protocols import goipfs_protocols
from repro.simulation.agents import AgentCatalog
from repro.simulation.churn_models import (
    MINUTE,
    ExponentialDistribution,
    SessionModel,
    always_on_session,
)
from repro.simulation.population import PeerClass, PeerProfile

#: sybils re-dial quickly and value the vantage-point connection
SYBIL_KEEP_PROBABILITY = 0.6
SYBIL_DISCOVERY_MEAN = 20 * MINUTE
#: spoofers seek the vantage point quickly, so every fresh PID is observed
SPOOF_DISCOVERY_MEAN = 15 * MINUTE


@dataclass(frozen=True)
class StagedArrivalSessionModel:
    """Offline until a uniform arrival inside ``window``, then effectively
    always on — the session shape of a Sybil flood joining over a ramp."""

    window: Tuple[float, float]
    uptime_mean: float = SYBIL_UPTIME
    max_sessions: Optional[int] = None

    def initial_state(self, rng: random.Random) -> Tuple[bool, float]:
        low, high = self.window
        return False, rng.uniform(low, high)

    def next_uptime(self, rng: random.Random, now: float = 0.0) -> float:
        return rng.expovariate(1.0 / self.uptime_mean)

    def next_downtime(self, rng: random.Random, now: float = 0.0) -> float:
        # A sybil that does drop rejoins almost immediately: identities are free.
        return rng.uniform(MINUTE, 5 * MINUTE)


def spoofer_session(session_mean: float, downtime_mean: float) -> SessionModel:
    """Short exponential sessions with quick returns (one fresh PID each)."""
    return SessionModel(
        uptime=ExponentialDistribution(session_mean),
        downtime=ExponentialDistribution(downtime_mean),
        initially_online_probability=0.5,
    )


def build_adversary_profiles(
    adversary: AdversaryConfig,
    start_index: int,
    seed: int,
) -> List[PeerProfile]:
    """Generate every attacker profile of ``adversary``, starting at
    ``start_index`` (appended after the honest population)."""
    rng = random.Random(seed + SEED_SALT)
    catalog = AgentCatalog(rng)
    profiles: List[PeerProfile] = []
    index = start_index

    def next_index() -> int:
        nonlocal index
        value = index
        index += 1
        return value

    # -- sybil flood: many cheap identities on few hosts -----------------------
    if adversary.sybil is not None:
        sybil = adversary.sybil
        # Identities are free, hosts are not: ~16 sybils share one IP, which is
        # what lets the multiaddress estimator partially see through the flood
        # while the neighbourhood-density estimator cannot.
        host_ips = [random_public_ipv4(rng) for _ in range(max(1, sybil.count // 16))]
        agent = catalog.make_goipfs_agent()
        staged = StagedArrivalSessionModel(sybil.arrival_window)
        for i in range(sybil.count):
            profiles.append(
                PeerProfile(
                    peer_index=next_index(),
                    peer_class=PeerClass.LIGHT,
                    # sybils announce /ipfs/kad/1.0.0, so they enter neighbourhoods
                    role=DHTMode.SERVER,
                    agent=agent,
                    protocols=goipfs_protocols(dht_server=True),
                    public_ip=host_ips[i % len(host_ips)],
                    behind_nat=False,
                    session_model=staged,
                    keep_probability=SYBIL_KEEP_PROBABILITY,
                    reconnect_mean=5 * MINUTE,
                    discovery_mean=SYBIL_DISCOVERY_MEAN,
                    adversary_kind=SYBIL,
                )
            )

    # -- eclipse ring: always-on servers mined around victim keys --------------
    if adversary.eclipse is not None:
        for _ in range(adversary.eclipse.count):
            profiles.append(
                PeerProfile(
                    peer_index=next_index(),
                    peer_class=PeerClass.NORMAL,
                    role=DHTMode.SERVER,
                    agent=catalog.make_goipfs_agent(),
                    protocols=goipfs_protocols(dht_server=True),
                    public_ip=random_public_ipv4(rng),
                    behind_nat=False,
                    session_model=always_on_session(),
                    keep_probability=0.35,
                    reconnect_mean=10 * MINUTE,
                    discovery_mean=60 * MINUTE,
                    adversary_kind=ECLIPSE,
                )
            )

    # -- poisoners / droppers: malicious always-on DHT servers -----------------
    if adversary.poison is not None:
        poison = adversary.poison
        droppers = int(round(poison.count * poison.drop_share))
        for i in range(poison.count):
            profiles.append(
                PeerProfile(
                    peer_index=next_index(),
                    peer_class=PeerClass.NORMAL,
                    role=DHTMode.SERVER,
                    agent=catalog.make_goipfs_agent(),
                    protocols=goipfs_protocols(dht_server=True),
                    public_ip=random_public_ipv4(rng),
                    behind_nat=False,
                    session_model=always_on_session(),
                    keep_probability=0.35,
                    reconnect_mean=10 * MINUTE,
                    discovery_mean=60 * MINUTE,
                    adversary_kind=DROPPER if i < droppers else POISONER,
                )
            )

    # -- churn spoofers: fresh PID every short session --------------------------
    if adversary.churn_spoof is not None:
        spoof = adversary.churn_spoof
        spoof_session = spoofer_session(spoof.session_mean, spoof.downtime_mean)
        for _ in range(spoof.count):
            profiles.append(
                PeerProfile(
                    peer_index=next_index(),
                    peer_class=PeerClass.LIGHT,
                    role=DHTMode.CLIENT,
                    agent=catalog.make_goipfs_agent(),
                    protocols=goipfs_protocols(dht_server=False),
                    public_ip=random_public_ipv4(rng),
                    behind_nat=False,
                    session_model=spoof_session,
                    rotates_pid=True,
                    keep_probability=0.1,
                    reconnect_mean=5 * MINUTE,
                    discovery_mean=SPOOF_DISCOVERY_MEAN,
                    adversary_kind=CHURN_SPOOFER,
                )
            )

    return profiles
