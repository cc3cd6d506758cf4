"""The run configuration: what one measurement period is, with no runtime.

:class:`ScenarioConfig` holds a run's population, fabric
(:class:`NetworkConfig`), meta-data behaviour timing (:class:`BehaviorConfig`)
and vantage points.  The scenario catalog and the sweep CLI build and check
these without loading the simulator; :mod:`repro.simulation.scenario` runs
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ipfs.config import IpfsConfig
from repro.simulation.churn_models import DAY, HOUR, MINUTE
from repro.simulation.content import ContentRoutingConfig
from repro.simulation.population import PopulationConfig

#: crawl cadence of the Weizenbaum-Institut crawler
DEFAULT_CRAWL_INTERVAL = 8 * 3600.0


@dataclass
class NetworkConfig:
    """Tunables of the network fabric (not of the population)."""

    #: remote peers' grace period + mean additional delay before they trim a
    #: connection they do not value (defaults mimic go-ipfs 20 s grace plus a
    #: trim cycle hitting within a couple of minutes).
    remote_grace: float = 20.0
    remote_trim_mean: float = 70.0
    #: how strongly a DHT-Client measurement node is discovered less often
    client_discovery_penalty: float = 10.0
    #: probability that a peer ever bothers contacting a DHT-Client vantage point
    client_contact_probability: float = 0.15
    #: how much less a remote values a connection to a DHT-Client vantage point
    client_keep_factor: float = 0.04
    #: size of a measurement identity's Kademlia neighbourhood (fast discovery)
    neighborhood_size: int = 30
    neighborhood_delay_max: float = 15 * MINUTE
    #: measurement node's own periodic maintenance
    identity_tick_interval: float = 60.0
    outbound_dial_interval: float = 300.0
    outbound_dial_batch: int = 3
    #: probability that an identify exchange completes on a new connection
    identify_success: float = 0.97
    #: share of one-time peers that reconnect once after losing their connection
    one_time_reconnect_probability: float = 0.3
    #: routing-table bootstrap sample per simulated DHT-Server
    routing_table_sample: int = 120
    #: entries pointing at peers offline for longer than this are not returned
    routing_entry_expiry: float = 2 * HOUR
    #: interval between crawl contacts of crawler-like peers
    crawler_contact_interval: float = 8 * HOUR
    crawler_probe_duration: tuple = (10.0, 60.0)


@dataclass
class BehaviorConfig:
    """Timing knobs of the meta-data behaviours."""

    #: mean time between two role flips of a flapping peer (~27 flips / 3 d)
    role_flip_interval: float = 2.6 * HOUR
    #: mean time between two autonat flips of a flapping peer (~24 flips / 3 d)
    autonat_flip_interval: float = 2.9 * HOUR
    #: version changes happen once, somewhere in the middle of the measurement
    version_change_window: tuple = (0.1, 0.9)
    #: probability that a dirty build stays dirty after a change (Table III is
    #: dominated by main–main and dirty–dirty transitions)
    keep_dirty_probability: float = 0.95
    keep_main_probability: float = 0.97


@dataclass
class ScenarioConfig:
    """Everything needed to run one measurement period."""

    duration: float = 1 * DAY
    population: PopulationConfig = field(default_factory=PopulationConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    behaviors: BehaviorConfig = field(default_factory=BehaviorConfig)
    #: go-ipfs measurement node configuration; ``None`` deploys no go-ipfs node
    go_ipfs: Optional[IpfsConfig] = field(default_factory=IpfsConfig.defaults)
    #: number of hydra heads; 0 deploys no hydra
    hydra_heads: int = 0
    hydra_low_water: Optional[int] = None
    hydra_high_water: Optional[int] = None
    #: whether to run the active crawler baseline
    run_crawler: bool = False
    crawl_interval: float = DEFAULT_CRAWL_INTERVAL
    #: content-routing workload; ``None`` (the default) schedules none, so
    #: scenarios without one are bit-identical to pre-content builds
    content: Optional[ContentRoutingConfig] = None
    seed: int = 7

    def __post_init__(self) -> None:
        if not 0 < self.duration < float("inf"):  # NaN or inf would never stop draining
            raise ValueError(f"duration must be positive and finite, got {self.duration}")
        if self.hydra_heads < 0:
            raise ValueError(f"hydra_heads must be >= 0, got {self.hydra_heads}")
        if self.go_ipfs is None and self.hydra_heads == 0:
            raise ValueError("a scenario needs at least one measurement vantage point")
        if self.hydra_heads > 0:
            low, high = self.hydra_low_water, self.hydra_high_water
            if low is not None and low <= 0:
                raise ValueError(f"hydra_low_water must be positive, got {low}")
            if high is not None and high <= 0:
                raise ValueError(f"hydra_high_water must be positive, got {high}")
            if low is not None and high is not None and high < low:
                raise ValueError(
                    f"hydra watermarks must satisfy low <= high, got {low}/{high}"
                )
        if self.run_crawler and self.crawl_interval <= 0:
            raise ValueError(f"crawl_interval must be positive, got {self.crawl_interval}")
