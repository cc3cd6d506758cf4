"""Scenario wiring: population + measurement nodes + crawler → datasets.

A :class:`Scenario` corresponds to one of the paper's measurement periods: it
deploys the configured passive vantage points (a go-ipfs node and/or a hydra
with several heads), optionally runs the active crawler baseline on its 8 h
cadence, lets the simulated network run for the configured duration, and
returns the measurement datasets plus the ground truth for validation.
"""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.adversary.behaviors import AdversaryBehaviors, AttackStats
    from repro.bandwidth.runtime import BandwidthStats
    from repro.faults.runtime import FaultStats
    from repro.netmodel.runtime import NetModelStats
    from repro.obs.hub import MetricsSummary
    from repro.obs.trace_export import TraceSummary

from repro.core.records import MeasurementDataset
from repro.crawler.crawler import Crawler
from repro.crawler.monitor import CrawlMonitor
from repro.hydra.head import HYDRA_HIGH_WATER, HYDRA_LOW_WATER, HydraHead
from repro.ipfs.node import IpfsNode
from repro.simulation.behaviors import ContentBehaviors, MetadataBehaviors
from repro.simulation.config import ScenarioConfig
from repro.simulation.content import ContentRoutingStats
from repro.simulation.engine import Engine, PeriodicTask
from repro.simulation.network import MeasurementIdentity, SimulatedNetwork
from repro.simulation.population import Population, generate_population

#: dataset label of the go-ipfs vantage point
GO_IPFS_LABEL = "go-ipfs"
#: label prefix of hydra heads ("hydra-H0", "hydra-H1", ...)
HYDRA_LABEL_PREFIX = "hydra-H"
#: label of the union-of-heads dataset
HYDRA_UNION_LABEL = "hydra"


@dataclass
class ScenarioResult:
    """Datasets and ground truth produced by one scenario run."""

    config: ScenarioConfig
    datasets: Dict[str, MeasurementDataset]
    crawls: CrawlMonitor
    population: Population
    events_processed: int
    version_changes: int = 0
    role_flips: int = 0
    autonat_flips: int = 0
    #: content-routing workload outcome (None when the scenario ran none)
    content: Optional[ContentRoutingStats] = None
    #: adversary ground truth (None when the scenario deployed no attackers)
    adversary: Optional[AttackStats] = None
    #: network-conditions ground truth (None on the idealised fabric)
    netmodel: Optional[NetModelStats] = None
    #: fault-injection ground truth (None on the fault-free fabric)
    faults: Optional[FaultStats] = None
    #: data-plane ground truth (None on the zero-size fabric)
    bandwidth: Optional[BandwidthStats] = None
    #: streaming-metrics digest: windowed counters/gauges/histograms plus the
    #: retained window payloads (None when the scenario ran without obs)
    metrics: Optional[MetricsSummary] = None
    #: causal span traces: per-operation trace trees plus per-kind counts
    #: (None when the scenario ran without tracing)
    spans: Optional[TraceSummary] = None
    #: base58 PID per measurement identity label (analysis needs the vantage
    #: point's keyspace position, e.g. for neighbourhood-density estimates)
    identity_keys: Dict[str, str] = field(default_factory=dict)

    def dataset(self, label: str) -> MeasurementDataset:
        return self.datasets[label]

    def go_ipfs(self) -> Optional[MeasurementDataset]:
        return self.datasets.get(GO_IPFS_LABEL)

    def hydra_heads(self) -> List[MeasurementDataset]:
        return [
            self.datasets[label]
            for label in sorted(self.datasets)
            if label.startswith(HYDRA_LABEL_PREFIX)
        ]

    def hydra_union(self) -> Optional[MeasurementDataset]:
        return self.datasets.get(HYDRA_UNION_LABEL)


@contextmanager
def collector_parked() -> Iterator[None]:
    """Keep the cyclic garbage collector out of a bulk-construction phase.

    Building a network allocates millions of objects that all live until the
    run ends; every generational pass the allocations trigger traverses that
    heap and frees nothing.  Nothing in ``repro`` has a finaliser or a weak
    reference, so when cycles are collected cannot reach a result.  Parking
    never keeps an earlier run alive, because a finished run holds no cycle
    (:meth:`Scenario.run` releases it) and reference counting frees it.  A
    caller that already disabled the collector finds it still disabled
    afterwards.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Scenario:
    """Builds and runs one simulated measurement period."""

    def __init__(self, config: ScenarioConfig) -> None:
        with collector_parked():
            self._build(config)

    def _build(self, config: ScenarioConfig) -> None:
        self.config = config
        # Nothing runs after the duration, so the engine stores no event due
        # later (most of a short run's schedules).
        self.engine = Engine(end=config.duration)
        # REPRO_PROGRESS=1 prints per-simulated-hour liveness lines to stderr
        # (wall-clock data never enters the deterministic artifacts).
        from repro.obs.progress import maybe_trace

        maybe_trace(
            self.engine,
            f"n={config.population.n_peers} seed={config.seed}",
        )
        self.rng = random.Random(config.seed)
        self.population = generate_population(config.population, random.Random(config.seed + 10))
        self.network = SimulatedNetwork(
            self.engine, self.population, random.Random(config.seed + 20), config.network
        )
        self.behaviors = MetadataBehaviors(
            self.engine, self.network, random.Random(config.seed + 30), config.behaviors
        )
        self.content: Optional[ContentBehaviors] = None
        if config.content is not None:
            self.content = ContentBehaviors(
                self.engine, self.network, random.Random(config.seed + 70), config.content
            )
        self.adversary: Optional[AdversaryBehaviors] = None
        if config.population.adversary is not None:
            from repro.adversary.behaviors import AdversaryBehaviors

            self.adversary = AdversaryBehaviors(
                self.engine,
                self.network,
                random.Random(config.seed + 80),
                config.population.adversary,
                content=config.content,
            )
        self.crawler: Optional[Crawler] = None
        self.crawls = CrawlMonitor()
        vantage_points: List[Tuple[str, IpfsNode]] = []
        if config.go_ipfs is not None:
            node = IpfsNode(config=config.go_ipfs, rng=random.Random(config.seed + 40))
            vantage_points.append((GO_IPFS_LABEL, node))
        # The heads draw their keys in turn from one generator; the config
        # rejects non-positive watermarks, so only None means the default.
        rng = random.Random(config.seed + 50)
        low = config.hydra_low_water or HYDRA_LOW_WATER
        high = config.hydra_high_water or HYDRA_HIGH_WATER
        for index in range(config.hydra_heads):
            vantage_points.append((f"{HYDRA_LABEL_PREFIX}{index}", HydraHead(rng, low, high)))
        self.identities = [MeasurementIdentity(label, node) for label, node in vantage_points]
        for identity in self.identities:
            self.network.add_measurement_identity(identity)

    # -- execution --------------------------------------------------------------------

    def run(self) -> ScenarioResult:
        """Start and drain the run once; whether it returns or raises, it is
        then released (:meth:`_release`)."""
        try:
            with collector_parked():
                self._start()
            # The built heap is all long-lived: frozen, the collections the
            # drain triggers no longer traverse it.  (Freezing is
            # process-wide: a caller that froze a heap of its own finds it
            # unfrozen afterwards.)
            gc.freeze()
            try:
                return self._drain()
            finally:
                gc.unfreeze()
        finally:
            self._release()

    def _release(self) -> None:
        """Cut every reference cycle the run holds, so reference counting
        frees it the moment the caller drops this Scenario, instead of a
        collector pass traversing it.

        The queue holds bound methods of objects that hold the engine (and a
        started network refuses a second ``start()``, so it is never drained
        again); the rest are back-references the drain needed.
        """
        self.engine.clear()
        network = self.network
        network.adversary_monitor = None
        if network.faults is not None:
            network.faults.content = None
        if network.obs is not None:
            network.obs.network = None

    def _start(self) -> None:
        config = self.config
        # Attackers install before start(): routing tables and identity
        # neighbourhoods must be built over the mined attacker IDs.
        if self.adversary is not None:
            self.adversary.install(config.duration)
        self.network.start(config.duration)
        self.behaviors.schedule_all(config.duration)
        if self.content is not None:
            self.content.schedule_all(config.duration)
        if self.adversary is not None:
            self.adversary.schedule_all(config.duration)

        if config.run_crawler:
            self.crawler = Crawler(
                query=self.network.dht_query,
                bootstrap_peers=self.network.bootstrap_peers(),
                rng=random.Random(config.seed + 60),
            )
            PeriodicTask(
                self.engine,
                config.crawl_interval,
                self._run_crawl,
                start_delay=min(1800.0, config.crawl_interval),
            )

    def _drain(self) -> ScenarioResult:
        config = self.config
        # The engine ends at the duration, so this leaves its queue empty:
        # an event due later was never stored.
        self.engine.run_until(config.duration)

        datasets: Dict[str, MeasurementDataset] = {}
        for identity in self.identities:
            datasets[identity.label] = identity.measurement.finalize(config.duration)
        head_datasets = [
            datasets[label] for label in sorted(datasets) if label.startswith(HYDRA_LABEL_PREFIX)
        ]
        if head_datasets:
            datasets[HYDRA_UNION_LABEL] = MeasurementDataset.union(
                head_datasets, HYDRA_UNION_LABEL
            )

        content_stats = None
        if self.content is not None:
            content_stats = self.content.finalize(config.duration)
        attack_stats = None
        if self.adversary is not None:
            attack_stats = self.adversary.finalize(config.duration)

        return ScenarioResult(
            config=config,
            datasets=datasets,
            crawls=self.crawls,
            population=self.population,
            events_processed=self.engine.events_processed,
            version_changes=self.behaviors.version_changes_applied,
            role_flips=self.behaviors.role_flips_applied,
            autonat_flips=self.behaviors.autonat_flips_applied,
            content=content_stats,
            adversary=attack_stats,
            netmodel=(
                self.network.netmodel.stats if self.network.netmodel is not None else None
            ),
            faults=(
                self.network.faults.stats if self.network.faults is not None else None
            ),
            bandwidth=(
                self.network.bandwidth.finalize(config.duration)
                if self.network.bandwidth is not None
                else None
            ),
            metrics=(
                self.network.obs.finalize(config.duration)
                if self.network.obs is not None
                else None
            ),
            spans=(
                self.network.tracer.finalize(config.duration)
                if self.network.tracer is not None
                else None
            ),
            identity_keys={
                identity.label: str(identity.peer_id) for identity in self.identities
            },
        )

    def _run_crawl(self, now: float) -> None:
        assert self.crawler is not None
        tracer = self.network.tracer
        if tracer is None:
            self.crawls.add(self.crawler.crawl(now))
            return
        # A crawl is an instantaneous breadth-first walk over dht_query: its
        # RPC leaves cost zero simulated seconds, so the trace records reach
        # (discovered / reachable / queries) rather than latency.
        tracer.begin("crawler.walk", 0)
        snapshot = self.crawler.crawl(now)
        self.crawls.add(snapshot)
        tracer.finish_root(
            0.0,
            discovered=len(snapshot.discovered),
            reachable=len(snapshot.reachable),
            unreachable=len(snapshot.unreachable),
            queries=snapshot.queries_sent,
        )


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Build and run a scenario in one call."""
    return Scenario(config).run()
