"""The paper's measurement periods (Table I) as data, plus the watermark scaling rule.

Table I of the paper:

======  =======================  ========  =====  =====  =======  =====
Period  Dates                    Duration  Low    High   go-ipfs  Hydra
======  =======================  ========  =====  =====  =======  =====
P0      2021-12-03 – 2021-12-06  ~3 d      600    900    Server   3*
P1      2021-12-09 – 2021-12-10  ~1 d      2k     4k     Server   2
P2      2021-12-13 – 2021-12-14  ~1 d      18k    20k    Server   2
P3      2022-02-16 – 2022-02-17  ~1 d      18k    20k    Client   –
P4      2021-12-10 – 2021-12-13  ~3 d      18k    20k    Server   –
P14     2022-03-29 – 2022-04-12  ~14 d     18k    20k    Server   –
======  =======================  ========  =====  =====  =======  =====

(*) The paper lists P0 as two deployments (P01: go-ipfs with defaults 600/900,
P02: a hydra with 3 heads and 1.2k/1.8k); we model them as one scenario with
both vantage points.  "P14" is the additional ~14 day measurement behind Fig. 6.

Each row is registered as a runnable scenario (``p0`` … ``p14``) by
:mod:`repro.scenarios.catalog`, whose builder takes the row's values as its
``--set`` defaults.  Because the simulated population is much smaller than the
live network, the connection-manager watermarks are scaled by
``n_peers / 62'204`` (the paper's connected-PID count, :func:`scale_watermarks`)
so the *mechanism* — does the vantage point trim its own connections, and how
aggressively — is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.kademlia.dht import DHTMode

#: the paper's connected-PID count used as the watermark scaling denominator
PAPER_SCALE_PIDS = 62_204

#: Compensation factor applied on top of the population ratio when scaling the
#: connection-manager watermarks.  The compressed simulated population contacts
#: the vantage point at a higher per-peer rate than the live network (shorter
#: periods, faster reconnects), so a purely proportional LowWater would be
#: smaller than the arrivals within one grace period and the trim loop would
#: churn even its best-scored connections — a regime the live network never
#: enters.  The headroom keeps the ratio of LowWater to arrivals-per-trim-cycle
#: in the same regime as the paper's deployment while preserving the ordering
#: of the per-period configurations.
WATERMARK_HEADROOM = 4.0
#: lower bound for any scaled LowWater (keeps tiny test populations sane)
MIN_SCALED_LOW_WATER = 20
#: hydra-booster's (unscaled) connection-manager watermarks
HYDRA_BASE_LOW_WATER = 15_000
HYDRA_BASE_HIGH_WATER = 20_000


def scale_watermarks(
    low_water: int,
    high_water: int,
    n_peers: int,
    *,
    headroom: float = WATERMARK_HEADROOM,
    min_low_water: int = MIN_SCALED_LOW_WATER,
    paper_pids: int = PAPER_SCALE_PIDS,
) -> Tuple[int, int]:
    """Scale live-network connection-manager watermarks to a simulated population.

    Shared by the period specs and the scenario registry so every scenario
    derives its watermarks the same way: proportional to
    ``n_peers / paper_pids`` with :data:`WATERMARK_HEADROOM` applied, LowWater
    floored at ``min_low_water``, and HighWater kept strictly above LowWater.
    """
    if n_peers <= 0:
        raise ValueError(f"n_peers must be positive, got {n_peers}")
    if low_water <= 0 or high_water < low_water:
        raise ValueError(
            f"require 0 < low_water <= high_water, got {low_water}/{high_water}"
        )
    scale = n_peers / paper_pids * headroom
    scaled_low = max(min_low_water, int(round(low_water * scale)))
    scaled_high = max(scaled_low + 2, int(round(high_water * scale)))
    return scaled_low, scaled_high


@dataclass(frozen=True)
class PeriodSpec:
    """One measurement period of Table I (plus the 14 d run of Fig. 6)."""

    period_id: str
    start_date: str
    end_date: str
    duration_days: float
    low_water: int
    high_water: int
    go_ipfs_mode: DHTMode
    hydra_heads: int
    hydra_low_water: int = HYDRA_BASE_LOW_WATER
    hydra_high_water: int = HYDRA_BASE_HIGH_WATER
    run_crawler: bool = True
    #: compressed duration of the registered scenario, which the fidelity
    #: checks run at (simulated days); ``None`` means "use the paper's duration"
    bench_duration_days: Optional[float] = None
    #: population size of the registered scenario
    bench_peers: int = 1500

    @property
    def bench_days(self) -> float:
        """The duration a run gets when none is asked for: the compressed
        benchmark duration where the period has one, else the paper's."""
        if self.bench_duration_days is not None:
            return self.bench_duration_days
        return self.duration_days


PERIODS: Dict[str, PeriodSpec] = {
    "P0": PeriodSpec(
        period_id="P0",
        start_date="2021-12-03",
        end_date="2021-12-06",
        duration_days=3.0,
        low_water=600,
        high_water=900,
        go_ipfs_mode=DHTMode.SERVER,
        hydra_heads=3,
        hydra_low_water=1_200,
        hydra_high_water=1_800,
        bench_duration_days=1.5,
        bench_peers=1200,
    ),
    "P1": PeriodSpec(
        period_id="P1",
        start_date="2021-12-09",
        end_date="2021-12-10",
        duration_days=1.0,
        low_water=2_000,
        high_water=4_000,
        go_ipfs_mode=DHTMode.SERVER,
        hydra_heads=2,
        bench_peers=1500,
    ),
    "P2": PeriodSpec(
        period_id="P2",
        start_date="2021-12-13",
        end_date="2021-12-14",
        duration_days=1.0,
        low_water=18_000,
        high_water=20_000,
        go_ipfs_mode=DHTMode.SERVER,
        hydra_heads=2,
        bench_peers=1500,
    ),
    "P3": PeriodSpec(
        period_id="P3",
        start_date="2022-02-16",
        end_date="2022-02-17",
        duration_days=1.0,
        low_water=18_000,
        high_water=20_000,
        go_ipfs_mode=DHTMode.CLIENT,
        hydra_heads=0,
        bench_peers=1500,
    ),
    "P4": PeriodSpec(
        period_id="P4",
        start_date="2021-12-10",
        end_date="2021-12-13",
        duration_days=3.0,
        low_water=18_000,
        high_water=20_000,
        go_ipfs_mode=DHTMode.SERVER,
        hydra_heads=0,
        bench_duration_days=2.0,
        bench_peers=1800,
    ),
    "P14": PeriodSpec(
        period_id="P14",
        start_date="2022-03-29",
        end_date="2022-04-12",
        duration_days=14.0,
        low_water=18_000,
        high_water=20_000,
        go_ipfs_mode=DHTMode.SERVER,
        hydra_heads=0,
        run_crawler=False,
        bench_duration_days=7.0,
        bench_peers=800,
    ),
}

