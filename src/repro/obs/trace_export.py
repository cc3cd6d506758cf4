"""Deterministic trace export: the single render path behind ``traces.jsonl``.

Mirrors the discipline of :mod:`repro.obs.hub`'s metrics export: every trace
payload is rendered exactly once, by exactly one function
(:func:`build_trace`), with sorted keys, compact separators, and floats
rounded to six decimals — so a fixed-seed run produces a byte-identical
``traces.jsonl`` every time and CI can diff the file directly.

Rendering is *lazy*: the tracer's hot path only appends primitive event
tuples (see :mod:`repro.obs.spans`), and :class:`TraceSummary` replays them
into payload dicts on first access of :attr:`TraceSummary.traces` — after
the simulation's timed region, which is what keeps the
``benchmarks/bench_overhead.py trace`` gate honest.

:class:`TraceSummary` is the picklable carrier riding
``ScenarioResult.spans``.  :func:`leaf_attribution` is the shared
critical-path decomposition used by both the sweep-cell report
(:mod:`repro.analysis.trace_report`) and the ``repro.obs.critical_path``
CLI.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.artifacts import atomic_write

#: schema tag stamped on every trace line; bump on layout changes
TRACE_SCHEMA = "repro-traces/1"

#: attribution bucket for time an internal span holds beyond its children
#: (scheduling slack, capped leaves, the operation's own bookkeeping)
RESIDUAL_CATEGORY = "other"

#: direct children kept per span (crawler walks would otherwise collect
#: thousands of RPC leaves); drops are counted on the parent
MAX_CHILDREN = 64


def _round6(value: float) -> float:
    """One rounding rule for every exported duration (same as metrics)."""
    return round(float(value), 6)


def _render_attr(value):
    return _round6(value) if isinstance(value, float) else value


def _render_attrs(attrs: Dict) -> Dict:
    return {key: _render_attr(value) for key, value in sorted(attrs.items())}


#: one raw finished operation as recorded by the tracer's hot path:
#: (key, kind, start, outcome, timed_out, seconds, root_attrs, events) where
#: key is the (kind, index, seq) tuple (rendered to "kind:index:seq" here)
#: and events is the flat tuple stream ("p", name, cat) /
#: ("o", seconds, attrs) / ("l", name, cat, seconds, attrs) /
#: ("r", name, seconds, outcome, rtt, hop, attempt) /
#: ("t", rtt, queueing, serialization, seconds, size)
TraceRecord = Tuple[tuple, str, float, str, bool, float, Optional[Dict], List[tuple]]


def build_trace(record: TraceRecord) -> Dict:
    """Replay one recorded event stream into its exported trace payload.

    Empty attrs/children are omitted so the common leaf renders as three
    keys — the export stays compact at full sampling.  Leaves beyond
    :data:`MAX_CHILDREN` per span are dropped and counted on the parent
    (structural child spans always attach: there are only ever a handful).
    """
    key, kind, start, outcome, timed_out, seconds, root_attrs, events = record
    root: Dict = {"name": kind, "cat": "op", "seconds": _round6(seconds)}
    if root_attrs:
        root["attrs"] = _render_attrs(root_attrs)
    stack = [root]
    for event in events:
        tag = event[0]
        node = stack[-1]
        if tag == "l" or tag == "r":
            if tag == "l":
                _, name, category, leaf_seconds, attrs = event
            else:
                # The RPC fast path records a bare tuple; categorise here.
                _, name, leaf_seconds, rpc_outcome, rtt, hop, attempt = event
                attrs = {}
                if hop:
                    attrs["hop"] = hop
                if attempt:
                    attrs["attempt"] = attempt
                if rpc_outcome == "ok":
                    category = "walk"
                    if rtt:
                        attrs["rtt"] = rtt
                else:
                    category = "dial" if rpc_outcome == "dial_fail" else "walk"
                    attrs["outcome"] = rpc_outcome
            children = node.get("children")
            if children is None:
                children = node["children"] = []
            if len(children) >= MAX_CHILDREN:
                node["children_dropped"] = node.get("children_dropped", 0) + 1
                continue
            leaf: Dict = {
                "name": name, "cat": category, "seconds": _round6(leaf_seconds)
            }
            if attrs:
                leaf["attrs"] = _render_attrs(attrs)
            children.append(leaf)
        elif tag == "t":
            # Composite planned-transfer event: one hot-path append expands
            # into the transfer span and its three component leaves here.
            _, rtt, queueing, serialization, transfer_seconds, size = event
            children = node.get("children")
            if children is None:
                children = node["children"] = []
            children.append({
                "name": "transfer", "cat": "transfer",
                "seconds": _round6(transfer_seconds),
                "attrs": {"size": size},
                "children": [
                    {"name": "rtt", "cat": "transfer",
                     "seconds": _round6(rtt)},
                    {"name": "queue_wait", "cat": "queue",
                     "seconds": _round6(queueing)},
                    {"name": "serialization", "cat": "serialization",
                     "seconds": _round6(serialization)},
                ],
            })
        elif tag == "p":
            _, name, category = event
            child = {"name": name, "cat": category, "seconds": 0.0}
            children = node.get("children")
            if children is None:
                children = node["children"] = []
            children.append(child)
            stack.append(child)
        else:  # "o": close the open structural span
            _, pop_seconds, attrs = event
            node["seconds"] = _round6(pop_seconds)
            if attrs:
                node["attrs"] = _render_attrs(attrs)
            stack.pop()
    payload = {
        "schema": TRACE_SCHEMA,
        "key": f"{key[0]}:{key[1]}:{key[2]}",
        "op": kind,
        "start": _round6(start),
        "outcome": outcome,
        "seconds": _round6(seconds),
        "root": root,
    }
    if timed_out:
        payload["timed_out"] = True
    return payload


def render_trace_line(payload: Dict) -> str:
    """Canonical JSONL form: sorted keys, no whitespace — the byte-identity
    contract lives here, nowhere else."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_traces(traces: Sequence[Dict], path: str) -> None:
    """Write kept traces, one canonical line each, in completion order."""
    with atomic_write(path) as handle:
        for payload in traces:
            handle.write(render_trace_line(payload))
            handle.write("\n")


class TraceSummary:
    """Picklable end-of-run tracing summary (``ScenarioResult.spans``).

    Holds the tracer's raw records (``pending=...``), which are replayed
    through :func:`build_trace` on first access of :attr:`traces` — lazily,
    so the simulation's timed region never pays the render cost.
    """

    def __init__(
        self,
        sample: float,
        ops: Optional[Dict[str, int]] = None,
        sampled: Optional[Dict[str, int]] = None,
        traces_dropped: int = 0,
        pending: Optional[List[TraceRecord]] = None,
    ) -> None:
        #: configured sample rate
        self.sample = sample
        #: operations begun per kind (counted whether or not sampled)
        self.ops = ops if ops is not None else {}
        #: traces kept per kind (sampled or force-kept on failure/timeout)
        self.sampled = sampled if sampled is not None else {}
        #: kept-but-not-retained traces beyond the cap
        self.traces_dropped = traces_dropped
        self._traces: Optional[List[Dict]] = None
        self._pending = pending if pending is not None else []

    @property
    def traces(self) -> List[Dict]:
        """Rendered trace payloads in completion order, capped at
        :data:`~repro.obs.spans.MAX_TRACES`."""
        if self._traces is None:
            self._traces = [build_trace(record) for record in self._pending]
            self._pending = []
        return self._traces


def leaf_attribution(root_payload: Dict) -> Dict[str, float]:
    """Critical-path decomposition of one rendered trace root.

    Leaves charge their full duration to their category; an internal span
    charges only its *residual* (its duration minus its direct children's)
    to its own category — the root's residual lands in
    ``RESIDUAL_CATEGORY``.  The buckets therefore always sum to the root's
    measured duration within float rounding, even when a per-span child cap
    dropped some leaves.
    """
    buckets: Dict[str, float] = {}
    _attribute(root_payload, buckets)
    return buckets


def _attribute(payload: Dict, buckets: Dict[str, float]) -> None:
    """Charge ``payload``'s children, in order, then its residual (a leaf's
    whole duration) to ``buckets``.  Module-level: a recursive closure would
    be a reference cycle per call, left for the cyclic collector."""
    children = payload.get("children") or ()
    child_sum = 0.0
    for child in children:
        child_sum += child["seconds"]
        _attribute(child, buckets)
    residual = payload["seconds"] - child_sum
    if residual or not children:
        category = payload["cat"]
        if category == "op":
            category = RESIDUAL_CATEGORY
        buckets[category] = buckets.get(category, 0.0) + residual
