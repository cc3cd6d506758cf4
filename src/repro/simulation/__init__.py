"""Discrete-event simulation of the IPFS network.

The paper measures the live IPFS network; this package provides the synthetic
stand-in: a deterministic, seedable discrete-event simulation of a peer
population whose composition and dynamics are calibrated to the values the
paper reports (see ``repro.experiments.paper_values``).  The passive
measurement nodes (go-ipfs, hydra-booster), the active crawler baseline, and
the remote peers all run against the same simulated clock.
"""

from repro.simulation.engine import Engine, Event
from repro.simulation.churn_models import (
    ChurnModel,
    DiurnalChurnModel,
    ExponentialDistribution,
    FlashCrowdChurnModel,
    LogNormalDistribution,
    MassOutageChurnModel,
    SessionModel,
    UniformDistribution,
    WeibullDistribution,
)
from repro.simulation.agents import AgentCatalog, GoIpfsVersion, parse_goipfs_agent
from repro.simulation.population import (
    ChurnModelFactory,
    PeerClass,
    PeerProfile,
    Population,
    PopulationConfig,
    default_session_model,
    generate_population,
)
from repro.simulation.network import SimulatedNetwork, MeasurementIdentity
from repro.simulation.scenario import Scenario, ScenarioConfig, ScenarioResult

__all__ = [
    "Engine",
    "Event",
    "ChurnModel",
    "ChurnModelFactory",
    "DiurnalChurnModel",
    "ExponentialDistribution",
    "FlashCrowdChurnModel",
    "LogNormalDistribution",
    "MassOutageChurnModel",
    "UniformDistribution",
    "WeibullDistribution",
    "SessionModel",
    "AgentCatalog",
    "GoIpfsVersion",
    "parse_goipfs_agent",
    "PeerClass",
    "PeerProfile",
    "Population",
    "PopulationConfig",
    "default_session_model",
    "generate_population",
    "SimulatedNetwork",
    "MeasurementIdentity",
    "Scenario",
    "ScenarioConfig",
    "ScenarioResult",
]
