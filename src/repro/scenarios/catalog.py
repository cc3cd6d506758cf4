"""The built-in scenario catalog.

Seven families are registered at import time:

* the six paper measurement periods (``p0`` … ``p4``, ``p14``), one entry per
  Table I row of :mod:`repro.experiments.periods` with the row's watermarks,
  hydra head count and crawler switch as its ``--set`` defaults,
* six stress scenarios that exercise churn regimes the paper's live
  measurement could not control: flash crowds, diurnal weeks, correlated mass
  outages, client-heavy populations, hydra head scaling, and the active
  crawler racing a flash crowd,
* three content-routing scenarios that run a publish/retrieve workload
  (provider records with TTL expiry and republish, Zipf-popular items,
  Bitswap fetches) against the churning fabric: steady publishing under paper
  churn, a retrieval flash crowd, and a record-expiry regime with republish
  disabled,
* four adversarial scenarios (:mod:`repro.adversary`) that attack the
  measurements themselves: a Sybil flood inflating density-based network-size
  estimates, an eclipse ring capturing provider records, routing
  poisoners/droppers degrading lookups and the crawler, and churn spoofers
  polluting the Table IV classification,
* four network-realism scenarios (:mod:`repro.netmodel`) that drop the
  idealised zero-latency, fully-dialable fabric: a NAT-heavy population the
  crawler undercounts, a high-RTT regime stretching retrieval latencies, a
  relay-assisted content workload, and time-bounded lookups that give up,
* four fault-injection scenarios (:mod:`repro.faults`) that pair injected
  failures with retry/backoff resilience: lossy links dropping RPCs, a
  regional partition with a scheduled heal, a crash storm leaving dirty
  provider records behind, and a slow-node tail eating walk budgets, and
* four data-plane scenarios (:mod:`repro.bandwidth`) that give blocks real
  sizes and peers real up/down links: a flash crowd over large blocks, a
  relayed plurality on starved uplinks, a provider hotspot saturating its
  uplink, and a mixed-size catalog spreading transfer percentiles.

Like Table I, every entry is a set of *deltas* over one deployment: each
scenario is a small builder that computes the fields it changes and hands
them to :func:`_compose`, the only place a :class:`ScenarioConfig` is
assembled.  The :func:`_entry` decorator registers the builder (600 peers x
0.5 d unless it says otherwise) and derives the spec's ``knobs`` — what
``--list`` shows and ``--set`` accepts — from the builder's own keyword
parameters, so the two cannot drift apart.

Every scenario derives its connection-manager watermarks through
:func:`repro.experiments.periods.scale_watermarks` (2000/4000 scaled unless
the description or a knob says otherwise), so watermark mechanics stay
comparable across the catalog.  Content and adversarial
scenarios derive their workload intervals and attack windows from the
scenario duration, so even heavily compressed sweep cells run the whole
publish → resolve → expire (and join → attack → distort) cycle.  The
adversarial builders take an optional strength override (``sybil_count``,
``eclipse_count``, ``poison_count``, ``spoof_count``) so a sweep can vary
attack power; 0 means attack-free, the same scenario with ``adversary=None``.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Dict, Optional

from repro.adversary.config import (
    AdversaryConfig,
    ChurnSpoofConfig,
    EclipseConfig,
    RoutingPoisonConfig,
    SybilFloodConfig,
)
from repro.bandwidth.config import BandwidthConfig
from repro.experiments.periods import (
    HYDRA_BASE_HIGH_WATER,
    HYDRA_BASE_LOW_WATER,
    PERIODS,
    PeriodSpec,
    scale_watermarks,
)
from repro.faults.config import (
    CrashConfig,
    FaultConfig,
    LinkFaultConfig,
    PartitionConfig,
    SlowNodeConfig,
)
from repro.faults.retry import RetryPolicy
from repro.ipfs.config import IpfsConfig
from repro.kademlia.dht import DHTMode
from repro.netmodel.config import (
    NetModelConfig,
    ReachabilityConfig,
    RegionModelConfig,
)
from repro.simulation.churn_models import (
    DAY,
    HOUR,
    ChurnModel,
    DiurnalChurnModel,
    FlashCrowdChurnModel,
    MassOutageChurnModel,
)
from repro.simulation.content import ContentRoutingConfig
from repro.simulation.population import (
    PeerClass,
    PopulationConfig,
    default_session_model,
)
from repro.simulation.config import ScenarioConfig
from repro.scenarios.registry import (
    ScenarioBuilder,
    ScenarioSpec,
    override_parameters,
    register,
)

# -- the one scenario skeleton ------------------------------------------------------


def _compose(
    n_peers: int,
    duration_days: float,
    seed: int,
    *,
    watermarks: Optional[tuple] = (2_000, 4_000),
    dht_mode: DHTMode = DHTMode.SERVER,
    population: Optional[dict] = None,
    content: Optional[dict] = None,
    crawler: bool = False,
    **scenario_fields,
) -> ScenarioConfig:
    """Assemble one catalog scenario from its deltas over the base deployment.

    The base is the paper-calibrated population in front of a go-ipfs vantage
    point in ``dht_mode``.  ``watermarks`` are its unscaled connection-manager
    watermarks (``None``: no go-ipfs node is deployed), ``population`` holds
    :class:`PopulationConfig` field deltas, ``content`` the
    :func:`_content_workload` keyword deltas (``None``: no workload, ``{}``:
    the base workload), ``crawler`` runs the active crawler baseline, and any
    other keyword is a :class:`ScenarioConfig` field.
    """
    duration = duration_days * DAY
    go_ipfs = None
    if watermarks is not None:
        low, high = scale_watermarks(*watermarks, n_peers)
        go_ipfs = IpfsConfig(low_water=low, high_water=high, dht_mode=dht_mode)
    if crawler:
        # Crawl often enough that at least one crawl lands inside a burst
        # even for heavily compressed sweep durations.
        scenario_fields.update(run_crawler=True, crawl_interval=max(duration / 3.0, 600.0))
    return ScenarioConfig(
        duration=duration,
        population=replace(
            PopulationConfig.scaled_to_paper(n_peers, seed=seed), **(population or {})
        ),
        go_ipfs=go_ipfs,
        content=None if content is None else _content_workload(duration, **content),
        seed=seed,
        **scenario_fields,
    )


def _entry(
    name: str, description: str, *tags: str, peers: int = 600, days: float = 0.5
) -> Callable[[ScenarioBuilder], ScenarioBuilder]:
    """Register the decorated builder as scenario ``name`` (``peers`` x ``days``).

    The spec's ``knobs`` are the builder's override parameters with their live
    defaults, i.e. exactly the keys ``--set`` accepts; the regime's fixed
    numbers belong in ``description``.
    """

    def decorate(builder: ScenarioBuilder) -> ScenarioBuilder:
        knobs = {key: param.default for key, param in override_parameters(builder).items()}
        register(
            ScenarioSpec(
                name=name,
                description=description,
                builder=builder,
                tags=tags,
                default_peers=peers,
                default_duration_days=days,
                knobs=knobs,
            )
        )
        return builder

    return decorate


def _attackers(count: Optional[int], n_peers: int, share: float, floor: int) -> int:
    """An attacker head-count: the override if given, else ``share`` of the
    honest population (at least ``floor`` — identities are cheap)."""
    return count if count is not None else max(floor, int(round(n_peers * share)))


def _attack(kind: str, count: int, make: Callable[..., object], **fields) -> dict:
    """The population delta deploying ``count`` attackers of one ``kind``
    (an :class:`AdversaryConfig` field) built by ``make``; a count of 0 is
    the same scenario without attackers (``adversary=None``)."""
    if count == 0:
        return dict(adversary=None)
    return dict(adversary=AdversaryConfig(**{kind: make(count=count, **fields)}))


# -- the paper's measurement periods ------------------------------------------------


def _register_period(row: PeriodSpec) -> None:
    """Register one Table I row; the row's values are its knob defaults."""

    @_entry(
        row.period_id.lower(),
        f"Paper period {row.period_id} ({row.start_date} – {row.end_date}): a "
        f"DHT-{row.go_ipfs_mode.value.capitalize()} go-ipfs vantage point; hydra watermarks "
        f"{row.hydra_low_water}/{row.hydra_high_water} scaled; the crawler, when on, every 8 h",
        "paper",
        peers=row.bench_peers,
        days=row.bench_days,
    )
    def build(
        n_peers: int,
        duration_days: float,
        seed: int,
        low_water: int = row.low_water,
        high_water: int = row.high_water,
        hydra_heads: int = row.hydra_heads,
        crawler: bool = row.run_crawler,
    ) -> ScenarioConfig:
        hydra_low = hydra_high = None
        if hydra_heads:
            hydra_low, hydra_high = scale_watermarks(
                row.hydra_low_water, row.hydra_high_water, n_peers
            )
        # run_crawler, not _compose(crawler=True): the periods crawl at the
        # paper's 8 h interval, not every third of the window.
        return _compose(
            n_peers,
            duration_days,
            seed,
            watermarks=(low_water, high_water),
            dht_mode=row.go_ipfs_mode,
            hydra_heads=hydra_heads,
            hydra_low_water=hydra_low,
            hydra_high_water=hydra_high,
            run_crawler=crawler,
        )


for _row in PERIODS.values():
    _register_period(_row)


# -- stress scenarios ---------------------------------------------------------------

#: class shares of a one-time-dominated crowd population
FLASH_CROWD_SHARES: Dict[PeerClass, float] = {
    PeerClass.HEAVY: 0.10,
    PeerClass.NORMAL: 0.18,
    PeerClass.LIGHT: 0.22,
    PeerClass.ONE_TIME: 0.50,
}
FLASH_CROWD_INTENSITY = 6.0
FLASH_CROWD_ARRIVAL_SHARE = 0.85
#: crowd peers arrive *looking for* content near the vantage point: they
#: discover it ~3x faster than the organic population
FLASH_CROWD_DISCOVERY_SCALE = 0.3

DIURNAL_AMPLITUDE = 0.6
DIURNAL_PEAK = 18 * HOUR

MASS_OUTAGE_REGION_SHARE = 0.45

CLIENT_HEAVY_SERVER_FACTOR = 0.15
CLIENT_HEAVY_NAT_SHARE = 0.70
#: go-ipfs' default watermarks (paper period P0)
CLIENT_HEAVY_WATERMARKS = (600, 900)

HYDRA_SCALING_HEADS = 6

#: the barely-trimming vantage point of paper periods P2 – P14
WIDE_WATERMARKS = (18_000, 20_000)


def _flash_crowd_population(duration_days: float) -> dict:
    """Population deltas shared by the flash-crowd scenarios: a
    one-time-dominated class mix whose arrivals concentrate in a burst that
    starts at 30 % of the window and lasts a quarter of it (capped at two
    hours)."""
    duration = duration_days * DAY
    burst_start = duration * 0.30
    burst_duration = min(2 * HOUR, max(duration * 0.25, 60.0))

    def factory(peer_class: PeerClass, rng: random.Random) -> ChurnModel:
        return FlashCrowdChurnModel(
            base=default_session_model(peer_class, rng),
            burst_start=burst_start,
            burst_duration=burst_duration,
            intensity=FLASH_CROWD_INTENSITY,
            arrival_share=FLASH_CROWD_ARRIVAL_SHARE,
        )

    return dict(
        class_shares=dict(FLASH_CROWD_SHARES),
        churn_model_factory=factory,
        discovery_scale=FLASH_CROWD_DISCOVERY_SCALE,
    )


@_entry(
    "flash-crowd",
    f"A one-time-heavy ({FLASH_CROWD_SHARES[PeerClass.ONE_TIME]:.0%}) population floods in "
    "during a burst window 30 % into the run, 25 % long (≤ 2 h): "
    f"{FLASH_CROWD_ARRIVAL_SHARE:.0%} of arrivals concentrated, reconnects accelerated "
    f"x{FLASH_CROWD_INTENSITY:g}, vantage discovery time x{FLASH_CROWD_DISCOVERY_SCALE:g}",
    "stress",
    "burst",
)
def _flash_crowd(n_peers: int, duration_days: float, seed: int) -> ScenarioConfig:
    population = _flash_crowd_population(duration_days)
    return _compose(n_peers, duration_days, seed, population=population)


def _diurnal_factory(peer_class: PeerClass, rng: random.Random) -> ChurnModel:
    return DiurnalChurnModel(
        base=default_session_model(peer_class, rng),
        amplitude=DIURNAL_AMPLITUDE,
        peak_time=DIURNAL_PEAK,
    )


@_entry(
    "diurnal-week",
    f"Sine-modulated day/night activity (amplitude {DIURNAL_AMPLITUDE:g}) over a multi-day "
    f"window (peak {DIURNAL_PEAK / HOUR:g}:00, trough 06:00); watermarks "
    f"{WIDE_WATERMARKS[0]}/{WIDE_WATERMARKS[1]} scaled",
    "stress",
    "diurnal",
    days=2.0,
)
def _diurnal_week(n_peers: int, duration_days: float, seed: int) -> ScenarioConfig:
    population = dict(churn_model_factory=_diurnal_factory)
    return _compose(
        n_peers, duration_days, seed, watermarks=WIDE_WATERMARKS, population=population
    )


@_entry(
    "mass-outage",
    f"A correlated region failure drops ~{MASS_OUTAGE_REGION_SHARE * 100:g} % of peers "
    "mid-window (40 % in, for 15 % of it), followed by a reconnect stampede",
    "stress",
    "outage",
)
def _mass_outage(n_peers: int, duration_days: float, seed: int) -> ScenarioConfig:
    duration = duration_days * DAY
    outage_start = duration * 0.40
    outage_duration = max(duration * 0.15, 60.0)

    def factory(peer_class: PeerClass, rng: random.Random) -> ChurnModel:
        base = default_session_model(peer_class, rng)
        if rng.random() >= MASS_OUTAGE_REGION_SHARE:
            return base
        return MassOutageChurnModel(
            base=base, outage_start=outage_start, outage_duration=outage_duration
        )

    return _compose(n_peers, duration_days, seed, population=dict(churn_model_factory=factory))


@_entry(
    "client-heavy",
    f"A DHT-Client-dominated (server shares x{CLIENT_HEAVY_SERVER_FACTOR:g}), heavily NATed "
    f"({CLIENT_HEAVY_NAT_SHARE:.0%}) population against a default-watermark "
    f"({CLIENT_HEAVY_WATERMARKS[0]}/{CLIENT_HEAVY_WATERMARKS[1]}) server vantage point",
    "stress",
    "composition",
)
def _client_heavy(n_peers: int, duration_days: float, seed: int) -> ScenarioConfig:
    base = PopulationConfig.scaled_to_paper(n_peers, seed=seed)
    population = dict(
        server_share_per_class={
            cls: share * CLIENT_HEAVY_SERVER_FACTOR
            for cls, share in base.server_share_per_class.items()
        },
        nat_share=CLIENT_HEAVY_NAT_SHARE,
    )
    return _compose(
        n_peers, duration_days, seed, watermarks=CLIENT_HEAVY_WATERMARKS, population=population
    )


@_entry(
    "hydra-scaling",
    f"A {HYDRA_SCALING_HEADS}-head hydra as the only vantage point (head-count scaling of the "
    f"union dataset; watermarks {HYDRA_BASE_LOW_WATER}/{HYDRA_BASE_HIGH_WATER} scaled)",
    "stress",
    "hydra",
)
def _hydra_scaling(n_peers: int, duration_days: float, seed: int) -> ScenarioConfig:
    low, high = scale_watermarks(HYDRA_BASE_LOW_WATER, HYDRA_BASE_HIGH_WATER, n_peers)
    return _compose(
        n_peers,
        duration_days,
        seed,
        watermarks=None,
        hydra_heads=HYDRA_SCALING_HEADS,
        hydra_low_water=low,
        hydra_high_water=high,
    )


@_entry(
    "crawler-vs-passive-under-burst",
    "The active crawler baseline races the passive vantage point through the flash-crowd "
    "burst (crawls every third of the window, ≥ 10 min apart; watermarks "
    f"{WIDE_WATERMARKS[0]}/{WIDE_WATERMARKS[1]} scaled)",
    "stress",
    "burst",
    "crawler",
)
def _crawler_vs_passive_under_burst(
    n_peers: int, duration_days: float, seed: int
) -> ScenarioConfig:
    return _compose(
        n_peers,
        duration_days,
        seed,
        watermarks=WIDE_WATERMARKS,
        population=_flash_crowd_population(duration_days),
        crawler=True,
    )


# -- content-routing scenarios ------------------------------------------------------

#: the base workload: who publishes, who retrieves, how skewed the popularity
CONTENT_PUBLISHER_SHARE = 0.06
CONTENT_RETRIEVER_SHARE = 0.3
CONTENT_ZIPF_EXPONENT = 1.05
#: workload intervals relative to the scenario duration (so compressed cells
#: still see several publish/retrieve rounds per participant)
CONTENT_PUBLISH_FRACTION = 1 / 8
CONTENT_RETRIEVE_FRACTION = 1 / 16
CONTENT_TTL_FRACTION = 0.5
CONTENT_REPUBLISH_FRACTION = 0.25
#: the short-lived records of the expiry scenario
EXPIRY_TTL_FRACTION = 0.12

FLASH_RETRIEVER_SHARE = 0.6
FLASH_ZIPF_EXPONENT = 1.4
#: the retrieval flash crowd's workload: a retrieving majority on a steep head
FLASH_CONTENT = dict(
    retriever_share=FLASH_RETRIEVER_SHARE,
    zipf_exponent=FLASH_ZIPF_EXPONENT,
    retrieve_fraction=1 / 24,
)


def _content_workload(
    duration: float,
    publisher_share: float = CONTENT_PUBLISHER_SHARE,
    retriever_share: float = CONTENT_RETRIEVER_SHARE,
    zipf_exponent: float = CONTENT_ZIPF_EXPONENT,
    ttl_fraction: float = CONTENT_TTL_FRACTION,
    republish_fraction: Optional[float] = CONTENT_REPUBLISH_FRACTION,
    retrieve_fraction: float = CONTENT_RETRIEVE_FRACTION,
    n_items: int = 32,
    block_size_classes: Optional[tuple] = None,
) -> ContentRoutingConfig:
    """A duration-relative content workload shared by the content scenarios."""
    return ContentRoutingConfig(
        n_items=n_items,
        zipf_exponent=zipf_exponent,
        publisher_share=publisher_share,
        retriever_share=retriever_share,
        publish_interval=duration * CONTENT_PUBLISH_FRACTION,
        retrieve_interval=duration * retrieve_fraction,
        provider_ttl=duration * ttl_fraction,
        republish_interval=(
            None if republish_fraction is None else duration * republish_fraction
        ),
        block_size_classes=block_size_classes,
    )


@_entry(
    "provide-churn",
    f"Publishers ({CONTENT_PUBLISHER_SHARE:.0%} of peers; {CONTENT_RETRIEVER_SHARE:.0%} "
    f"retrieve, Zipf {CONTENT_ZIPF_EXPONENT:g}) keep provider records alive (TTL "
    f"{CONTENT_TTL_FRACTION:g} x duration, republish at TTL/2 pace) against the "
    "paper-calibrated churning population",
    "content",
    "churn",
)
def _provide_churn(n_peers: int, duration_days: float, seed: int) -> ScenarioConfig:
    return _compose(n_peers, duration_days, seed, content={})


@_entry(
    "retrieval-flash-crowd",
    f"A one-time-heavy crowd floods in mid-window and hammers ({FLASH_RETRIEVER_SHARE:.0%} "
    f"retrieve) the hottest items (steep Zipf head, exponent {FLASH_ZIPF_EXPONENT:g}) with "
    "FIND_PROVIDERS + fetches",
    "content",
    "burst",
)
def _retrieval_flash_crowd(n_peers: int, duration_days: float, seed: int) -> ScenarioConfig:
    population = _flash_crowd_population(duration_days)
    return _compose(n_peers, duration_days, seed, population=population, content=FLASH_CONTENT)


@_entry(
    "provider-record-expiry",
    f"Short-TTL ({EXPIRY_TTL_FRACTION:g} x duration) provider records with republish "
    "disabled: retrieval success decays as records expire out",
    "content",
    "expiry",
)
def _provider_record_expiry(n_peers: int, duration_days: float, seed: int) -> ScenarioConfig:
    content = dict(ttl_fraction=EXPIRY_TTL_FRACTION, republish_fraction=None)
    return _compose(n_peers, duration_days, seed, content=content)


# -- adversarial scenarios ----------------------------------------------------------

#: sybils as a share of the honest population (identities are cheap)
SYBIL_SHARE = 0.30
SYBIL_CLOSENESS_BITS = 12
#: sybil join ramp, as fractions of the window
SYBIL_ARRIVAL_SPAN = (0.05, 0.5)

ECLIPSE_SHARE = 0.05
ECLIPSE_MIN = 16
ECLIPSE_VICTIM_ITEMS = 2
ECLIPSE_CLOSENESS_BITS = 24

POISON_SHARE = 0.08
POISON_DROP_SHARE = 0.5

SPOOF_SHARE = 0.25
#: spoofer session/downtime as fractions of the window (≥ the floors below)
SPOOF_SESSION_FRACTION = 1 / 40
SPOOF_DOWNTIME_FRACTION = 1 / 60


@_entry(
    "sybil-netsize-inflation",
    f"A Sybil flood ({SYBIL_SHARE:.0%} of the honest population unless sybil_count is set, "
    f"{SYBIL_CLOSENESS_BITS} prefix bits close) mined into the vantage point's neighbourhood "
    f"over {SYBIL_ARRIVAL_SPAN[0]:.0%}–{SYBIL_ARRIVAL_SPAN[1]:.0%} of the window inflates "
    "density-based network-size estimates",
    "adversary",
    "sybil",
)
def _sybil_netsize_config(
    n_peers: int, duration_days: float, seed: int, sybil_count: Optional[int] = None
) -> ScenarioConfig:
    duration = duration_days * DAY
    low, high = SYBIL_ARRIVAL_SPAN
    population = _attack(
        "sybil",
        _attackers(sybil_count, n_peers, SYBIL_SHARE, floor=8),
        SybilFloodConfig,
        closeness_bits=SYBIL_CLOSENESS_BITS,
        arrival_window=(duration * low, duration * high),
    )
    return _compose(n_peers, duration_days, seed, population=population)


@_entry(
    "eclipse-provider",
    f"An eclipse ring ({ECLIPSE_SHARE:.0%} of the honest population, ≥ {ECLIPSE_MIN}, unless "
    f"eclipse_count is set) mined {ECLIPSE_CLOSENESS_BITS} bits around the "
    f"{ECLIPSE_VICTIM_ITEMS} hottest content keys captures provider records (shadow-published "
    "every duration/6) and starves retrievals",
    "adversary",
    "eclipse",
)
def _eclipse_provider_config(
    n_peers: int, duration_days: float, seed: int, eclipse_count: Optional[int] = None
) -> ScenarioConfig:
    population = _attack(
        "eclipse",
        _attackers(eclipse_count, n_peers, ECLIPSE_SHARE, floor=ECLIPSE_MIN),
        EclipseConfig,
        victim_items=ECLIPSE_VICTIM_ITEMS,
        closeness_bits=ECLIPSE_CLOSENESS_BITS,
        shadow_publish_interval=duration_days * DAY / 6.0,
    )
    return _compose(n_peers, duration_days, seed, population=population, content={})


@_entry(
    "poisoned-routing-under-churn",
    f"Malicious DHT servers ({POISON_SHARE:.0%} of the honest population unless poison_count "
    "is set) drop queries or answer with bogus closer-peers while the crawler (every third "
    "of the window, ≥ 10 min apart) and a content workload run",
    "adversary",
    "poison",
    "crawler",
)
def _poisoned_routing_config(
    n_peers: int,
    duration_days: float,
    seed: int,
    poison_count: Optional[int] = None,
    drop_share: float = POISON_DROP_SHARE,
) -> ScenarioConfig:
    population = _attack(
        "poison",
        _attackers(poison_count, n_peers, POISON_SHARE, floor=12),
        RoutingPoisonConfig,
        drop_share=drop_share,
    )
    return _compose(
        n_peers, duration_days, seed, population=population, content={}, crawler=True
    )


@_entry(
    "spoofed-churn-classification",
    f"Aggressive PID rotation ({SPOOF_SHARE:.0%} of the honest population unless spoof_count "
    f"is set) over short sessions ({SPOOF_SESSION_FRACTION:g} x duration up, "
    f"{SPOOF_DOWNTIME_FRACTION:.3g} x duration down) floods the Table IV classification with "
    "fake one-time/light peers",
    "adversary",
    "spoof",
)
def _spoofed_churn_config(
    n_peers: int, duration_days: float, seed: int, spoof_count: Optional[int] = None
) -> ScenarioConfig:
    duration = duration_days * DAY
    population = _attack(
        "churn_spoof",
        _attackers(spoof_count, n_peers, SPOOF_SHARE, floor=10),
        ChurnSpoofConfig,
        session_mean=max(duration * SPOOF_SESSION_FRACTION, 30.0),
        downtime_mean=max(duration * SPOOF_DOWNTIME_FRACTION, 20.0),
    )
    return _compose(n_peers, duration_days, seed, population=population)


# -- network-realism scenarios ------------------------------------------------------

#: nat-heavy-crawl: an unreachable majority the crawler cannot dial
NAT_HEAVY_NAT_SHARE = 0.55
NAT_HEAVY_RELAY_SHARE = 0.10
#: high-latency-retrieval: every RTT multiplied, walks bounded in time
HIGH_LATENCY_SCALE = 4.0
HIGH_LATENCY_NAT_SHARE = 0.15
HIGH_LATENCY_LOOKUP_TIMEOUT = 18.0
#: relay-assisted-content: a relayed plurality serving blocks at a penalty
RELAY_ASSISTED_RELAY_SHARE = 0.35
RELAY_ASSISTED_NAT_SHARE = 0.20
RELAY_PENALTY = 2.2
#: timeout-bound-lookups: a tight walk budget against a NATed population
TIMEOUT_BOUND_LOOKUP_BUDGET = 8.0
TIMEOUT_BOUND_NAT_SHARE = 0.45
TIMEOUT_BOUND_RTT_SCALE = 2.0


@_entry(
    "nat-heavy-crawl",
    f"A NAT-heavy population ({NAT_HEAVY_RELAY_SHARE:.0%} relayed) the active crawler "
    "(every third of the window, ≥ 10 min apart) cannot dial: the passive vantage point "
    "sees peers the crawler undercounts",
    "netmodel",
    "nat",
    "crawler",
)
def _nat_heavy_crawl_config(
    n_peers: int, duration_days: float, seed: int, nat_share: float = NAT_HEAVY_NAT_SHARE
) -> ScenarioConfig:
    reachability = ReachabilityConfig(nat_share=nat_share, relay_share=NAT_HEAVY_RELAY_SHARE)
    population = dict(netmodel=NetModelConfig(reachability=reachability))
    return _compose(n_peers, duration_days, seed, population=population, crawler=True)


@_entry(
    "high-latency-retrieval",
    f"Every inter-region RTT multiplied ({HIGH_LATENCY_NAT_SHARE:.0%} NATed): retrieval "
    f"latency percentiles stretch and {HIGH_LATENCY_LOOKUP_TIMEOUT:g} s time-bounded walks "
    "start expiring",
    "netmodel",
    "latency",
)
def _high_latency_retrieval_config(
    n_peers: int, duration_days: float, seed: int, rtt_scale: float = HIGH_LATENCY_SCALE
) -> ScenarioConfig:
    netmodel = NetModelConfig(
        regions=replace(RegionModelConfig(), scale=rtt_scale),
        reachability=ReachabilityConfig(nat_share=HIGH_LATENCY_NAT_SHARE, relay_share=0.10),
        lookup_timeout=HIGH_LATENCY_LOOKUP_TIMEOUT,
    )
    return _compose(n_peers, duration_days, seed, population=dict(netmodel=netmodel), content={})


@_entry(
    "relay-assisted-content",
    f"A relayed plurality ({RELAY_ASSISTED_NAT_SHARE:.0%} more NATed outright) keeps content "
    f"retrievable — at the relay's x{RELAY_PENALTY:g} latency penalty on every fetch",
    "netmodel",
    "relay",
)
def _relay_assisted_content_config(
    n_peers: int,
    duration_days: float,
    seed: int,
    relay_share: float = RELAY_ASSISTED_RELAY_SHARE,
) -> ScenarioConfig:
    reachability = ReachabilityConfig(
        nat_share=RELAY_ASSISTED_NAT_SHARE, relay_share=relay_share, relay_penalty=RELAY_PENALTY
    )
    population = dict(netmodel=NetModelConfig(reachability=reachability))
    return _compose(n_peers, duration_days, seed, population=population, content={})


@_entry(
    "timeout-bound-lookups",
    f"A tight simulated-time walk budget against a NATed ({TIMEOUT_BOUND_NAT_SHARE:.0%}), "
    f"slowed (RTT x{TIMEOUT_BOUND_RTT_SCALE:g}) fabric: lookups give up instead of converging",
    "netmodel",
    "timeout",
)
def _timeout_bound_lookups_config(
    n_peers: int,
    duration_days: float,
    seed: int,
    lookup_timeout: float = TIMEOUT_BOUND_LOOKUP_BUDGET,
) -> ScenarioConfig:
    netmodel = NetModelConfig(
        regions=replace(RegionModelConfig(), scale=TIMEOUT_BOUND_RTT_SCALE),
        reachability=ReachabilityConfig(nat_share=TIMEOUT_BOUND_NAT_SHARE),
        lookup_timeout=lookup_timeout,
    )
    return _compose(n_peers, duration_days, seed, population=dict(netmodel=netmodel), content={})


# -- fault-injection scenarios ------------------------------------------------------

#: lossy-links: every RPC rolls against these on the wire
LOSSY_LINK_LOSS = 0.25
LOSSY_LINK_DUPLICATE = 0.02
#: partition-heal: window placement and minority size, fractions of the window
PARTITION_START_FRACTION = 0.35
PARTITION_DURATION_FRACTION = 0.25
PARTITION_SHARE = 0.4
PARTITION_RECOVERY_FRACTION = 0.02
#: crash-storm: renewal/restart means as fractions of the window
CRASH_MTBF_FRACTION = 0.25
CRASH_RESTART_FRACTION = 0.05
CRASH_SHARE = 0.8
#: slow-node-tail: the degraded share and its RTT multiplier range
SLOW_TAIL_SHARE = 0.18
SLOW_TAIL_MIN_FACTOR = 4.0
SLOW_TAIL_MAX_FACTOR = 15.0
SLOW_TAIL_LOOKUP_TIMEOUT = 15.0

#: the catalog's resilience policy: 3 attempts, 0.25 s base, x2 capped at 8 s
FAULT_RETRY = RetryPolicy()


@_entry(
    "lossy-links",
    "Every RPC rolls against per-link loss (and occasional, "
    f"{LOSSY_LINK_DUPLICATE:.0%}, duplication); capped-backoff retries "
    f"({FAULT_RETRY.max_attempts} attempts, {FAULT_RETRY.base_delay:g} s base "
    f"x{FAULT_RETRY.multiplier:g}, cap {FAULT_RETRY.max_delay:g} s) claw success back",
    "faults",
    "loss",
)
def _lossy_links_config(
    n_peers: int,
    duration_days: float,
    seed: int,
    loss_rate: float = LOSSY_LINK_LOSS,
    retry: bool = True,
) -> ScenarioConfig:
    faults = FaultConfig(
        links=LinkFaultConfig(loss_rate=loss_rate, duplicate_rate=LOSSY_LINK_DUPLICATE),
        retry=FAULT_RETRY if retry else None,
    )
    return _compose(n_peers, duration_days, seed, population=dict(faults=faults), content={})


@_entry(
    "partition-heal",
    "A regional split severs a minority mid-window "
    f"({PARTITION_START_FRACTION:g}–{PARTITION_START_FRACTION + PARTITION_DURATION_FRACTION:g} "
    "x duration), then heals with a bounded reconnect spread "
    f"({PARTITION_RECOVERY_FRACTION:g} x duration, ≥ 60 s: time-to-recover)",
    "faults",
    "partition",
)
def _partition_heal_config(
    n_peers: int, duration_days: float, seed: int, partition_share: float = PARTITION_SHARE
) -> ScenarioConfig:
    duration = duration_days * DAY
    partition = PartitionConfig(
        start=duration * PARTITION_START_FRACTION,
        duration=duration * PARTITION_DURATION_FRACTION,
        share=partition_share,
        recovery_spread=max(duration * PARTITION_RECOVERY_FRACTION, 60.0),
    )
    faults = FaultConfig(partition=partition, retry=FAULT_RETRY)
    return _compose(n_peers, duration_days, seed, population=dict(faults=faults), content={})


@_entry(
    "crash-storm",
    f"Abrupt crash/restart cycles (MTBF {CRASH_MTBF_FRACTION:g} x duration, restart after "
    f"{CRASH_RESTART_FRACTION:g} x duration) leave dirty provider records behind; recovered "
    "providers republish their items",
    "faults",
    "crash",
)
def _crash_storm_config(
    n_peers: int, duration_days: float, seed: int, crash_share: float = CRASH_SHARE
) -> ScenarioConfig:
    duration = duration_days * DAY
    crash = CrashConfig(
        mtbf=duration * CRASH_MTBF_FRACTION,
        restart_mean=duration * CRASH_RESTART_FRACTION,
        share=crash_share,
    )
    faults = FaultConfig(crash=crash, retry=FAULT_RETRY, republish_on_recovery=True)
    return _compose(n_peers, duration_days, seed, population=dict(faults=faults), content={})


@_entry(
    "slow-node-tail",
    f"A slow tail answers with {SLOW_TAIL_MIN_FACTOR:g}–{SLOW_TAIL_MAX_FACTOR:g}x RTT spikes "
    f"against {SLOW_TAIL_LOOKUP_TIMEOUT:g} s time-bounded walks: budgets drain without any "
    "packet loss",
    "faults",
    "slow",
)
def _slow_node_tail_config(
    n_peers: int, duration_days: float, seed: int, slow_share: float = SLOW_TAIL_SHARE
) -> ScenarioConfig:
    slow = SlowNodeConfig(
        share=slow_share, min_factor=SLOW_TAIL_MIN_FACTOR, max_factor=SLOW_TAIL_MAX_FACTOR
    )
    # Slow nodes only bite when walks carry a time budget, so this scenario
    # pairs the fault with the latency model and a bounded lookup clock.
    population = dict(
        netmodel=NetModelConfig(
            regions=RegionModelConfig(), lookup_timeout=SLOW_TAIL_LOOKUP_TIMEOUT
        ),
        faults=FaultConfig(slow=slow),
    )
    return _compose(n_peers, duration_days, seed, population=population, content={})


# -- data-plane (bandwidth) scenarios -----------------------------------------------

#: a mixed catalog: metadata-sized blocks up to video-chunk large objects
MIXED_BLOCK_CLASSES = (
    (16_000, 0.45),
    (262_144, 0.30),
    (4_000_000, 0.20),
    (33_554_432, 0.05),
)
#: a large-object distribution (the flash-crowd and hotspot regimes)
LARGE_BLOCK_CLASSES = (
    (4_000_000, 0.55),
    (16_000_000, 0.35),
    (67_108_864, 0.10),
)
#: retrievers of the two mixed-catalog regimes
MIXED_RETRIEVER_SHARE = 0.4
#: bandwidth-starved-relays: every uplink cut to a quarter
STARVED_UPLINK_SCALE = 0.25
STARVED_RELAY_SHARE = 0.35
STARVED_NAT_SHARE = 0.20
#: provider-hotspot: a couple of publishers serve a steep-Zipf handful of items
HOTSPOT_PUBLISHER_SHARE = 0.02
HOTSPOT_RETRIEVER_SHARE = 0.5
HOTSPOT_ZIPF = 1.6
HOTSPOT_ITEMS = 8


def _scaled_blocks(classes: tuple, size_scale: float) -> tuple:
    """Multiply every block size in a ``(size, weight)`` mix by ``size_scale``."""
    if size_scale <= 0:
        raise ValueError(f"size_scale must be positive, got {size_scale}")
    return tuple((max(1, int(round(size * size_scale))), weight) for size, weight in classes)


@_entry(
    "flash-crowd-large-blocks",
    "A flash crowd hammers a large-object catalog (4/16/64 MB mix): popular providers' "
    "uplinks queue up and transfers start timing out",
    "bandwidth",
    "burst",
    "content",
)
def _flash_crowd_large_blocks_config(
    n_peers: int,
    duration_days: float,
    seed: int,
    size_scale: float = 1.0,
    uplink_scale: float = 1.0,
) -> ScenarioConfig:
    population = dict(
        _flash_crowd_population(duration_days),
        netmodel=NetModelConfig(),
        bandwidth=BandwidthConfig(uplink_scale=uplink_scale),
    )
    content = dict(
        FLASH_CONTENT, block_size_classes=_scaled_blocks(LARGE_BLOCK_CLASSES, size_scale)
    )
    return _compose(n_peers, duration_days, seed, population=population, content=content)


@_entry(
    "bandwidth-starved-relays",
    f"A relayed plurality ({STARVED_NAT_SHARE:.0%} more NATed outright) on quarter-rate "
    f"uplinks over the mixed catalog: relay latency penalties (x{RELAY_PENALTY:g}) stack on "
    "top of real serialization delay",
    "bandwidth",
    "relay",
    "content",
)
def _bandwidth_starved_relays_config(
    n_peers: int,
    duration_days: float,
    seed: int,
    uplink_scale: float = STARVED_UPLINK_SCALE,
    relay_share: float = STARVED_RELAY_SHARE,
) -> ScenarioConfig:
    reachability = ReachabilityConfig(
        nat_share=STARVED_NAT_SHARE, relay_share=relay_share, relay_penalty=RELAY_PENALTY
    )
    population = dict(
        netmodel=NetModelConfig(reachability=reachability),
        bandwidth=BandwidthConfig(uplink_scale=uplink_scale),
    )
    content = dict(retriever_share=MIXED_RETRIEVER_SHARE, block_size_classes=MIXED_BLOCK_CLASSES)
    return _compose(n_peers, duration_days, seed, population=population, content=content)


@_entry(
    "provider-hotspot",
    f"Two-ish publishers ({HOTSPOT_PUBLISHER_SHARE:.0%}) serve a steep-Zipf "
    f"({HOTSPOT_ZIPF:g}) handful ({HOTSPOT_ITEMS}) of large items to "
    f"{HOTSPOT_RETRIEVER_SHARE:.0%} of the peers: the hot provider's uplink saturates and "
    "queues",
    "bandwidth",
    "hotspot",
    "content",
)
def _provider_hotspot_config(
    n_peers: int,
    duration_days: float,
    seed: int,
    uplink_scale: float = 1.0,
    size_scale: float = 1.0,
) -> ScenarioConfig:
    content = dict(
        publisher_share=HOTSPOT_PUBLISHER_SHARE,
        retriever_share=HOTSPOT_RETRIEVER_SHARE,
        zipf_exponent=HOTSPOT_ZIPF,
        retrieve_fraction=1 / 24,
        n_items=HOTSPOT_ITEMS,
        block_size_classes=_scaled_blocks(LARGE_BLOCK_CLASSES, size_scale),
    )
    population = dict(bandwidth=BandwidthConfig(uplink_scale=uplink_scale))
    return _compose(n_peers, duration_days, seed, population=population, content=content)


@_entry(
    "mixed-size-catalog",
    "A metadata-to-video block-size mix (16 KB – 32 MB) over the default access classes "
    f"(datacenter/fiber/cable/dsl/mobile), {MIXED_RETRIEVER_SHARE:.0%} retrieving: transfer "
    "percentiles spread across four decades",
    "bandwidth",
    "content",
)
def _mixed_size_catalog_config(
    n_peers: int,
    duration_days: float,
    seed: int,
    size_scale: float = 1.0,
    uplink_scale: float = 1.0,
) -> ScenarioConfig:
    content = dict(
        retriever_share=MIXED_RETRIEVER_SHARE,
        block_size_classes=_scaled_blocks(MIXED_BLOCK_CLASSES, size_scale),
    )
    population = dict(bandwidth=BandwidthConfig(uplink_scale=uplink_scale))
    return _compose(n_peers, duration_days, seed, population=population, content=content)
