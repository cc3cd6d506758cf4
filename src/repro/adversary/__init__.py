"""Adversarial subsystem: Sybil, eclipse, routing-poisoning, and
churn-spoofing attackers that ride the simulated fabric, plus the ground
truth needed to quantify how they distort the paper's passive measurements.
"""

from repro.adversary.attackers import (
    AttackerBehavior,
    EclipseAttacker,
    QueryDropper,
    RoutingPoisoner,
    mine_pid_near,
)
from repro.adversary.behaviors import AdversaryBehaviors, AttackStats
from repro.adversary.config import (
    CHURN_SPOOFER,
    DROPPER,
    ECLIPSE,
    POISONER,
    SYBIL,
    AdversaryConfig,
    ChurnSpoofConfig,
    EclipseConfig,
    RoutingPoisonConfig,
    SybilFloodConfig,
)
from repro.adversary.profiles import (
    StagedArrivalSessionModel,
    build_adversary_profiles,
    spoofer_session,
)

__all__ = [
    "CHURN_SPOOFER",
    "DROPPER",
    "ECLIPSE",
    "POISONER",
    "SYBIL",
    "AdversaryBehaviors",
    "AdversaryConfig",
    "AttackStats",
    "AttackerBehavior",
    "ChurnSpoofConfig",
    "EclipseAttacker",
    "EclipseConfig",
    "QueryDropper",
    "RoutingPoisonConfig",
    "RoutingPoisoner",
    "StagedArrivalSessionModel",
    "SybilFloodConfig",
    "build_adversary_profiles",
    "mine_pid_near",
    "spoofer_session",
]
