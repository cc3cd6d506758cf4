"""Span tracing from outside the program: wrappers around public callables.

The benchmark measures layers without editing ``src/``: :func:`install`
replaces public methods and imported names with wrappers that record one span
per call (name, start, end, parent) in a :class:`Tracer`.  Everything runs on
one thread, so spans nest strictly and a span's self time is its duration
minus its direct children.  Spans stay in memory until the run ends;
:meth:`Tracer.export` writes them out and :func:`layer_metrics` reduces them
to the per-layer numbers ``BENCHMARK.json`` lists.

Only a traced run imports this module; end-to-end numbers never come from one.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

import numpy as np

#: span names with more calls than this are exported as aggregates only
MAX_EXPORTED_SPANS_PER_NAME = 5_000

#: the FabricRuntime hook surface a subsystem may override
FABRIC_HOOKS = (
    "on_contact",
    "note_contact_made",
    "on_dial",
    "on_rpc",
    "on_timed_rpc",
    "identify_delay",
    "on_identify_delivered",
)


class Tracer:
    """In-memory span store for one traced run (one id per run)."""

    def __init__(self, run_id: str, origin: float) -> None:
        self.run_id = run_id
        #: ``time.perf_counter()`` reading all exported times are relative to
        self.origin = origin
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # Parallel columns, one entry per span; arrays, not objects, because
        # the passive workload records millions of spans.
        self.name_of = array("i")
        self.parent_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = []
        self._active: List[int] = []
        #: counts taken at the same boundaries as the spans
        self.counters: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._name_ids[name]

    # -- recording -----------------------------------------------------------------

    def wrapper(
        self,
        original: Callable,
        name: str,
        measure: Optional[Callable[[Counter, object], None]] = None,
    ) -> Callable:
        """``original`` wrapped in a span called ``name``.

        A call made while a span of the same name is already open runs
        unrecorded, so a layer's inclusive time never counts a nested entry
        into itself twice.  ``measure(counters, result)`` takes counts from
        the return value.
        """
        nid = self.name_id(name)
        name_of, parent_of, starts, ends = self.name_of, self.parent_of, self.starts, self.ends
        stack, active, counters = self._stack, self._active, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if active[nid]:
                return original(*args, **kwargs)
            active[nid] = 1
            index = len(starts)
            name_of.append(nid)
            parent_of.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                active[nid] = 0
            if measure is not None:
                measure(counters, result)
            return result

        traced.__wrapped__ = original
        return traced

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` (a class's method or a module's name)."""
        setattr(owner, attr, self.wrapper(getattr(owner, attr), name, measure))

    def span(self, name: str, start: float, end: float) -> None:
        """Record a top-level span the caller timed itself."""
        self.name_of.append(self.name_id(name))
        self.parent_of.append(-1)
        self.starts.append(start)
        self.ends.append(end)

    # -- reduction -----------------------------------------------------------------

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive, self and top-level seconds."""
        count = len(self.starts)
        names = np.frombuffer(self.name_of, dtype=np.intc, count=count)
        parents = np.frombuffer(self.parent_of, dtype=np.intc, count=count)
        durations = np.frombuffer(self.ends, dtype=np.float64, count=count) - np.frombuffer(
            self.starts, dtype=np.float64, count=count
        )
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=count
        )
        n_names = len(self.names)
        calls = np.bincount(names, minlength=n_names)
        total = np.bincount(names, weights=durations, minlength=n_names)
        self_time = np.bincount(names, weights=durations - covered, minlength=n_names)
        top = np.bincount(
            names[~has_parent], weights=durations[~has_parent], minlength=n_names
        )
        table = {}
        for nid, name in enumerate(self.names):
            table[name] = {
                "calls": int(calls[nid]),
                "seconds": float(total[nid]),
                "self_seconds": float(self_time[nid]),
                "top_level_seconds": float(top[nid]),
            }
        return table

    def durations(self, name: str) -> List[float]:
        """Every recorded duration of the spans called ``name``."""
        if name not in self._name_ids:
            return []
        count = len(self.starts)
        mine = np.frombuffer(self.name_of, dtype=np.intc, count=count) == self._name_ids[name]
        spans = np.frombuffer(self.ends, dtype=np.float64, count=count) - np.frombuffer(
            self.starts, dtype=np.float64, count=count
        )
        return spans[mine].tolist()

    def child_calls(self, name: str, parent_name: str) -> int:
        """Spans called ``name`` whose direct parent is called ``parent_name``."""
        if name not in self._name_ids or parent_name not in self._name_ids:
            return 0
        count = len(self.starts)
        names = np.frombuffer(self.name_of, dtype=np.intc, count=count)
        parents = np.frombuffer(self.parent_of, dtype=np.intc, count=count)
        mine = (names == self._name_ids[name]) & (parents >= 0)
        return int(np.sum(names[parents[mine]] == self._name_ids[parent_name]))

    def export(self) -> Dict:
        """The trace file payload: the aggregate table, the counters, and the
        spans themselves (times in seconds since the run was spawned)."""
        table = self.aggregate()
        kept = {
            nid
            for nid, name in enumerate(self.names)
            if table[name]["calls"] <= MAX_EXPORTED_SPANS_PER_NAME
        }
        # A span whose parent was left out keeps the nearest exported ancestor.
        exported_index: Dict[int, int] = {}
        spans = []
        origin = self.origin
        for index, nid in enumerate(self.name_of):
            if nid not in kept:
                continue
            parent = self.parent_of[index]
            while parent >= 0 and parent not in exported_index:
                parent = self.parent_of[parent]
            exported_index[index] = len(spans)
            spans.append(
                [
                    self.names[nid],
                    round(self.starts[index] - origin, 6),
                    round(self.ends[index] - origin, 6),
                    exported_index[parent] if parent >= 0 else -1,
                ]
            )
        return {
            "run_id": self.run_id,
            "layers": table,
            "counters": dict(sorted(self.counters.items())),
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": spans,
            "aggregated_only": sorted(
                name for nid, name in enumerate(self.names) if nid not in kept
            ),
        }


# -- counts taken from return values -------------------------------------------------


def _count_rpc(counters: Counter, reply) -> None:
    if reply is None:
        counters["network.rpc_failed"] += 1


def _count_trim(counters: Counter, victims) -> None:
    counters["libp2p.connmgr.trimmed"] += len(victims)


def _count_expired(counters: Counter, dropped) -> None:
    counters["provider_store.expired"] += dropped


def _count_crawl(counters: Counter, snapshot) -> None:
    counters["crawler.queries"] += snapshot.queries_sent
    counters["crawler.discovered"] += len(snapshot.discovered)
    counters["crawler.reachable"] += len(snapshot.reachable)


def _count_dataset(counters: Counter, dataset) -> None:
    counters["measurement.connections"] += len(dataset.connections)


def _count_timeout(counters: Counter, plan) -> None:
    if plan is None:
        counters["bandwidth.timeouts"] += 1


def _count_population(counters: Counter, population) -> None:
    counters["population.peers"] += len(population)


def _count_windows(counters: Counter, summary) -> None:
    counters["obs.windows"] += summary.windows_closed


def _count_traces(counters: Counter, summary) -> None:
    counters["obs.traces"] += sum(summary.sampled.values())


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are built from.

    Classes are patched in place; a function imported by name is patched in
    the namespace of the module that calls it.  Runs in a process that exits
    after one traced run, so nothing is ever unwrapped.
    """

    def module(path: str):
        return importlib.import_module(path)

    wrap = tracer.wrap

    registry = module("repro.scenarios.registry")
    sweep = module("repro.sweep")
    wrap(registry, "build_scenario_config", "scenarios.build_config")
    sweep.build_scenario_config = registry.build_scenario_config

    scenario = module("repro.simulation.scenario")
    wrap(scenario, "generate_population", "population.generate", _count_population)

    network = module("repro.simulation.network").SimulatedNetwork
    wrap(network, "__init__", "network.init")
    wrap(network, "start", "network.start")
    for rpc in ("dht_query", "add_provider", "get_providers"):
        wrap(network, rpc, "network.rpc", _count_rpc)
    for factory in ("timed_query_fn", "timed_add_provider_fn", "timed_get_providers_fn"):
        make = getattr(network, factory)

        def traced_factory(*args, _make=make, **kwargs):
            return tracer.wrapper(_make(*args, **kwargs), "network.rpc", _count_rpc)

        setattr(network, factory, traced_factory)

    behaviors = module("repro.simulation.behaviors")
    adversary = module("repro.adversary.behaviors")
    for cls in (
        behaviors.MetadataBehaviors,
        behaviors.ContentBehaviors,
        adversary.AdversaryBehaviors,
    ):
        wrap(cls, "schedule_all", "behaviors.schedule")
    wrap(adversary.AdversaryBehaviors, "install", "adversary.install")
    wrap(adversary.AdversaryBehaviors, "finalize", "adversary.finalize")

    wrap(module("repro.simulation.engine").Engine, "run_until", "engine.drain")

    table = module("repro.kademlia.routing_table").RoutingTable
    wrap(table, "add_peer", "routing_table.add_peer")
    wrap(table, "closest_peers", "routing_table.closest")
    wrap(table, "remove_peer", "routing_table.remove")

    wrap(module("repro.kademlia.dht"), "iterative_lookup", "dht.walk")
    wrap(behaviors, "iterative_provide", "dht.provide")
    wrap(behaviors, "iterative_find_providers", "dht.find_providers")
    adversary.iterative_provide = behaviors.iterative_provide

    store = module("repro.kademlia.provider_store").ProviderStore
    wrap(store, "add", "provider_store.add")
    wrap(store, "providers", "provider_store.get")
    wrap(store, "expire", "provider_store.expire", _count_expired)

    wrap(module("repro.crawler.crawler").Crawler, "crawl", "crawler.crawl", _count_crawl)

    for prefix, cls in (
        ("ipfs.node", module("repro.ipfs.node").IpfsNode),
        ("hydra.head", module("repro.hydra.head").HydraHead),
    ):
        wrap(cls, "handle_inbound_connection", f"{prefix}.inbound")
        wrap(cls, "receive_identify", f"{prefix}.identify")
        wrap(cls, "close_connection", f"{prefix}.close")
        wrap(cls, "tick", f"{prefix}.tick")
    wrap(
        module("repro.libp2p.connmgr").ConnectionManager,
        "trim",
        "libp2p.connmgr.trim",
        _count_trim,
    )

    measurement = module("repro.core.measurement")
    wrap(measurement.MeasurementRecorder, "on_connected", "measurement.record")
    wrap(measurement.MeasurementRecorder, "on_disconnected", "measurement.record")
    wrap(measurement.PassiveMeasurement, "poll", "measurement.poll")
    wrap(
        measurement.PassiveMeasurement, "finalize", "measurement.finalize", _count_dataset
    )

    wrap(sweep, "summarize_result", "analysis.summarise")
    wrap(sweep, "connection_statistics", "churn.stats")
    for report in (
        "content_metrics",
        "attack_metrics",
        "reachability_metrics",
        "resilience_metrics",
        "transfer_metrics",
        "metrics_metrics",
        "tracing_metrics",
    ):
        wrap(sweep, report, "analysis.reports")
    wrap(module("repro.core.netsize"), "estimate_network_size", "netsize.estimate")

    for prefix, cls in (
        ("netmodel", module("repro.netmodel.runtime").NetModelRuntime),
        ("faults", module("repro.faults.runtime").FaultRuntime),
        ("bandwidth", module("repro.bandwidth.runtime").BandwidthRuntime),
    ):
        for hook in FABRIC_HOOKS:
            if hook in vars(cls):
                wrap(cls, hook, f"{prefix}.hook")
    bandwidth = module("repro.bandwidth.runtime").BandwidthRuntime
    wrap(bandwidth, "plan_transfer", "bandwidth.plan", _count_timeout)
    wrap(bandwidth, "commit_transfer", "bandwidth.commit")

    wrap(
        module("repro.obs.runtime").MetricsRuntime,
        "finalize",
        "obs.hub_finalize",
        _count_windows,
    )
    spans = module("repro.obs.spans")
    wrap(spans.SpanTracer, "finalize", "obs.tracer_finalize", _count_traces)
    wrap(spans, "write_traces", "obs.export")
    wrap(module("repro.obs.hub"), "render_line", "obs.export")

    wrap(sweep, "summarize_cell", "sweep.cell")
    wrap(module("json"), "dump", "sweep.write_json")
    wrap(sweep, "aggregate_payload", "sweep.aggregate")
    wrap(sweep, "render_aggregate", "sweep.aggregate")


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> Dict[str, float]:
    """The per-layer metrics one traced run yields, by BENCHMARK.json name.

    ``_s`` is inclusive seconds, ``_self_s`` excludes wrapped callees,
    ``_calls`` and plain nouns are exact counts.  Layers the workload never
    entered report 0.
    """
    table = tracer.aggregate()
    counters = tracer.counters
    empty = {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "top_level_seconds": 0.0}

    def layer(name: str) -> Dict[str, float]:
        return table.get(name, empty)

    def seconds(*names: str) -> float:
        return sum(layer(name)["seconds"] for name in names)

    def calls(*names: str) -> int:
        return sum(layer(name)["calls"] for name in names)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics: Dict[str, float] = {
        "scenarios.build_config_s": seconds("scenarios.build_config"),
        "population.generate_s": seconds("population.generate"),
        "population.peers": counters["population.peers"],
        "network.init_s": seconds("network.init"),
        "network.start_s": seconds("network.start"),
        "network.rpc_calls": calls("network.rpc"),
        "network.rpc_s": seconds("network.rpc"),
        "network.rpc_failed": counters["network.rpc_failed"],
        "network.rpc_fail_share": share(counters["network.rpc_failed"], calls("network.rpc")),
        "behaviors.schedule_s": seconds("behaviors.schedule"),
        "engine.drain_s": seconds("engine.drain"),
        "engine.events": counters["engine.events"],
        "engine.drain_events_per_s": share(counters["engine.events"], seconds("engine.drain")),
        "engine.drain_share": share(seconds("engine.drain"), traced_wall_s),
        "engine.drain_self_s": layer("engine.drain")["self_seconds"],
        "routing_table.add_peer_calls": calls("routing_table.add_peer"),
        "routing_table.add_peer_s": seconds("routing_table.add_peer"),
        "routing_table.closest_calls": calls("routing_table.closest"),
        "routing_table.closest_s": seconds("routing_table.closest"),
        "routing_table.remove_calls": calls("routing_table.remove"),
        "routing_table.remove_s": seconds("routing_table.remove"),
        "dht.walks": calls("dht.walk"),
        "dht.walk_s": seconds("dht.walk"),
        "dht.walk_self_s": layer("dht.walk")["self_seconds"],
        "dht.rpcs_per_walk": share(
            tracer.child_calls("network.rpc", "dht.walk"), calls("dht.walk")
        ),
        "dht.provides": calls("dht.provide"),
        "dht.find_providers": calls("dht.find_providers"),
        "provider_store.add_calls": calls("provider_store.add"),
        "provider_store.get_calls": calls("provider_store.get"),
        "provider_store.expired": counters["provider_store.expired"],
        "provider_store.s": seconds(
            "provider_store.add", "provider_store.get", "provider_store.expire"
        ),
        "crawler.crawls": calls("crawler.crawl"),
        "crawler.crawl_s": seconds("crawler.crawl"),
        "crawler.queries": counters["crawler.queries"],
        "crawler.reach_share": share(
            counters["crawler.reachable"], counters["crawler.discovered"]
        ),
    }
    for prefix in ("ipfs.node", "hydra.head"):
        for event in ("inbound", "identify", "close", "tick"):
            metrics[f"{prefix}.{event}_calls"] = calls(f"{prefix}.{event}")
            metrics[f"{prefix}.{event}_s"] = seconds(f"{prefix}.{event}")
    metrics.update(
        {
            "libp2p.connmgr.trim_calls": calls("libp2p.connmgr.trim"),
            "libp2p.connmgr.trim_s": seconds("libp2p.connmgr.trim"),
            "libp2p.connmgr.trimmed": counters["libp2p.connmgr.trimmed"],
            "measurement.record_calls": calls("measurement.record"),
            "measurement.record_s": seconds("measurement.record"),
            "measurement.poll_calls": calls("measurement.poll"),
            "measurement.poll_s": seconds("measurement.poll"),
            "measurement.finalize_s": seconds("measurement.finalize"),
            "measurement.connections": counters["measurement.connections"],
            "analysis.summarise_s": seconds("analysis.summarise"),
            "churn.stats_s": seconds("churn.stats"),
            "netsize.estimate_s": seconds("netsize.estimate"),
            "analysis.reports_s": seconds("analysis.reports"),
            "netmodel.hook_calls": calls("netmodel.hook"),
            "netmodel.hook_s": seconds("netmodel.hook"),
            "faults.hook_calls": calls("faults.hook"),
            "faults.hook_s": seconds("faults.hook"),
            "bandwidth.plan_calls": calls("bandwidth.plan"),
            "bandwidth.commit_calls": calls("bandwidth.commit"),
            "bandwidth.s": seconds("bandwidth.hook", "bandwidth.plan", "bandwidth.commit"),
            "bandwidth.timeouts": counters["bandwidth.timeouts"],
            "adversary.install_s": seconds("adversary.install"),
            "adversary.finalize_s": seconds("adversary.finalize"),
            "obs.hub_finalize_s": seconds("obs.hub_finalize"),
            "obs.tracer_finalize_s": seconds("obs.tracer_finalize"),
            "obs.export_s": seconds("obs.export"),
            "obs.windows": counters["obs.windows"],
            "obs.traces": counters["obs.traces"],
            "sweep.cell_s": statistics.median(tracer.durations("sweep.cell") or [0.0]),
            "sweep.cells_s": seconds("sweep.cell"),
            "sweep.write_json_s": seconds("sweep.write_json"),
            "sweep.aggregate_s": seconds("sweep.aggregate"),
            "trace.coverage": share(
                sum(row["top_level_seconds"] for row in table.values()), traced_wall_s
            ),
        }
    )
    return metrics
