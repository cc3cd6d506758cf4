"""Causal span tracing: per-operation trace trees over the simulated fabric.

The metrics hub (:mod:`repro.obs.hub`) answers "how much / how often"; this
module answers "why was *this* operation slow".  Every traced operation — a
content retrieval or provide, an identify exchange, a crawler walk — opens a
root span; the DHT walk underneath it becomes a child span whose per-hop RPC
leaves carry RTT, dial outcome, and retry attempt; retry backoff charged
through :class:`~repro.faults.retry.RetryState` and the bandwidth runtime's
queue-wait / serialization / RTT transfer components become leaves of their
own.  Span durations ride the *existing* deterministic clocks — the
:class:`~repro.netmodel.runtime.WalkClock` for timed walks, engine simulated
time for everything else — never wall time, so a trace renders byte-identical
on every run.

Determinism contract (pinned by ``tests/test_spans.py``):

* **No RNG draws, ever.**  Sampling is a pure hash of the operation key
  (``kind:peer_index:sequence``): the first 8 bytes of its SHA-256 digest
  against ``sample * 2**64``.  Attaching the tracer cannot shift any sibling
  runtime's stream, and ``trace=None`` (the default) records nothing, so all
  pre-existing fixed-seed goldens stay byte-identical.
* **Failures are always kept.**  The keep/drop decision is deferred to the
  root span's close: operations that failed or timed out are retained
  regardless of the sample rate, so the interesting tail never vanishes at
  low sampling rates.
* **Attribution telescopes.**  Timed-walk RPC leaves record the walk clock's
  *delta* around the RPC dispatch, so the leaf durations sum exactly to the
  walk's accrued latency; the critical-path report
  (:mod:`repro.analysis.trace_report`) charges each internal span's residual
  to its own category, so per-trace attribution sums to the measured
  operation latency within float rounding even when a child cap dropped
  leaves.

The tracer hangs off the fabric as ``network.tracer`` but is deliberately
*not* a :class:`~repro.simulation.fabric.FabricRuntime`: it never vetoes,
charges, or contributes identify delay, so all recording happens at the
explicitly instrumented call sites and no hook dispatch pays for it.
``benchmarks/bench_overhead.py trace`` bounds the enabled cost.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.obs.trace_export import TraceRecord, TraceSummary, write_traces

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.engine import Engine


@dataclass(frozen=True)
class TraceConfig:
    """Tunables of the causal span tracer (:mod:`repro.obs.spans`).

    Attached at ``PopulationConfig.trace``; ``None`` (the default) traces
    nothing, draws nothing from any RNG, and schedules nothing, so every
    pre-existing fixed-seed golden stays byte-identical.
    """

    #: deterministic per-operation sample rate in (0, 1]; failed and
    #: timed-out operations are always kept regardless
    sample: float = 1.0
    #: stream every kept trace to this JSONL file at finalize (None: in-memory)
    jsonl_path: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.sample <= 1.0:
            raise ValueError(f"sample must be within (0, 1], got {self.sample}")


#: rendered traces retained per run (completion order; the rest only count)
MAX_TRACES = 10_000

#: identify-delay contributions per runtime name -> latency category
_IDENTIFY_CATEGORIES = {"netmodel": "walk", "bandwidth": "serialization"}


class SpanTracer:
    """Per-run span recorder, attached to the fabric as ``network.tracer``.

    The simulation is single-threaded and every traced operation runs
    synchronously inside one engine event (iterative walks spin on a
    :class:`WalkClock`, not on the event heap), so one open operation at a
    time suffices: :meth:`begin` opens the root, :meth:`push`/:meth:`pop`
    nest structural spans, :meth:`leaf` attaches measured components, and
    :meth:`finish_root` samples the finished operation.  The hot path only
    appends primitive event tuples — tree building, rounding, and JSON
    rendering are deferred to :class:`TraceSummary`'s lazy replay, outside
    the simulation's timed region.
    """

    def __init__(self, config: TraceConfig, engine: "Engine") -> None:
        self.config = config
        self.engine = engine
        #: hash threshold: keep when the key digest falls below it
        self._threshold = int(config.sample * 2.0**64)
        #: at full sampling every digest clears the threshold — skip hashing
        self._keep_all = config.sample >= 1.0
        #: whether an operation is currently being recorded (attribute, not a
        #: method: the per-RPC fast paths read it directly)
        self.recording = False
        #: flat event stream of the open operation; None between operations
        self._events: Optional[List[tuple]] = None
        self._kind = ""
        #: open operation's key as a (kind, index, seq) tuple; the canonical
        #: "kind:index:seq" string is only materialised when it is hashed or
        #: rendered — never on the keep-everything hot path
        self._key = ("", 0, 0)
        self._start = 0.0
        #: walk-hop / retry-attempt state the next RPC leaf annotates
        self._hop = 0
        self._attempt = 0
        #: operations begun / traces kept, per kind
        self.ops: Dict[str, int] = {}
        self.sampled: Dict[str, int] = {}
        #: raw kept records in completion order (capped at MAX_TRACES)
        self.records: List[TraceRecord] = []
        self.traces_dropped = 0

    # -- sampling --------------------------------------------------------------------

    def _op_key(self, kind: str, index: int) -> tuple:
        """Next operation key for ``kind`` — the per-kind sequence number *is*
        the ops counter, so one dict update serves both."""
        seq = self.ops.get(kind, 0)
        self.ops[kind] = seq + 1
        return (kind, index, seq)

    def _keep(self, key: tuple) -> bool:
        if self._keep_all:
            return True
        canonical = f"{key[0]}:{key[1]}:{key[2]}"
        digest = hashlib.sha256(canonical.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") < self._threshold

    # -- span stack ------------------------------------------------------------------

    def active(self) -> bool:
        """Whether an operation is currently being recorded (method form of
        :attr:`recording` for callers off the hot path)."""
        return self.recording

    def begin(self, kind: str, index: int) -> None:
        """Open an operation's root span (``index`` keys the sampling hash,
        typically the acting peer's index).  The keep/drop decision happens at
        :meth:`finish_root`, so failures can always be kept."""
        self.recording = True
        self._events = []
        self._kind = kind
        self._key = self._op_key(kind, index)
        self._start = self.engine.now
        self._hop = 0
        self._attempt = 0

    def begin_identify(self, label: str, index: int) -> bool:
        """Open an identify-exchange root, pre-gated by the sample hash.

        Identify exchanges cannot fail after being scheduled, so the
        always-keep-failures rule never applies and unsampled ones can skip
        recording entirely (they are by far the most frequent operation)."""
        kind = "identify"
        key = self._op_key(kind, index)
        if not self._keep(key):
            return False
        self.recording = True
        self._events = []
        self._kind = kind
        self._key = key
        self._start = self.engine.now
        return True

    def push(self, name: str, category: str) -> None:
        """Open a structural child span (walk, transfer) under the current one."""
        self._events.append(("p", name, category))

    def pop(self, seconds: float, **attrs) -> None:
        """Close the current span with its measured duration."""
        self._events.append(("o", seconds, attrs or None))

    def leaf(self, name: str, category: str, seconds: float, **attrs) -> None:
        """Attach one measured component to the current span (leaves beyond
        the per-span cap are dropped and counted at render time)."""
        self._events.append(("l", name, category, seconds, attrs or None))

    def finish_root(self, seconds: float, failed: bool = False,
                    timed_out: bool = False, **attrs) -> None:
        """Close the operation and decide keep/drop (render happens lazily)."""
        kind = self._kind
        if failed or timed_out or self._keep(self._key):
            self.sampled[kind] = self.sampled.get(kind, 0) + 1
            if len(self.records) < MAX_TRACES:
                self.records.append((
                    self._key, kind, self._start,
                    "fail" if failed else "ok", timed_out,
                    seconds, attrs or None, self._events,
                ))
            else:
                self.traces_dropped += 1
        self.recording = False
        self._events = None
        self._hop = 0
        self._attempt = 0

    # -- instrumentation state (set by dht.py / RetryState) --------------------------

    def hop(self, n: int) -> None:
        """Walk-hop annotation for subsequent RPC leaves (0: outside a batch,
        e.g. the provide walk's store phase)."""
        self._hop = n

    def set_attempt(self, n: int) -> None:
        """Retry-attempt annotation for the next re-issued RPC leaf (0: the
        initial attempt; reset by :class:`RetryState` when the call returns)."""
        self._attempt = n

    def backoff(self, seconds: float, attempt: int) -> None:
        """One retry backoff charged to a walk clock (only charged backoff is
        recorded — unclocked retries wait outside the measured latency)."""
        if self._events is not None:
            self._events.append(
                ("l", "backoff", "backoff", seconds, {"attempt": attempt})
            )

    def rpc(self, name: str, seconds: float, outcome: str,
            rtt: Optional[float] = None) -> None:
        """One RPC leaf under the current span (timed walks pass the clock
        delta around the dispatch; untimed RPCs cost zero seconds).

        The hot path appends one bare tuple; categorisation (a netmodel veto
        burned the dial timeout — ``dial`` — every other veto died on the
        wire after dialling — ``walk``) and attr assembly happen at render
        time in :func:`~repro.obs.trace_export.build_trace`."""
        self._events.append(("r", name, seconds, outcome, rtt, self._hop, self._attempt))

    def transfer(self, rtt: float, queueing: float, serialization: float,
                 seconds: float, size: int) -> None:
        """One planned Bitswap transfer decomposed into its bandwidth-runtime
        FIFO components — a single composite event on the hot path, expanded
        into the transfer span (rtt / queue_wait / serialization leaves) at
        render time."""
        self._events.append(("t", rtt, queueing, serialization, seconds, size))

    # -- identify exchanges ----------------------------------------------------------

    def finish_identify(self, delay: float, base: float, parts, label: str) -> None:
        """Record a whole identify exchange in one call (the most frequent
        traced operation): one leaf per nonzero runtime contribution in
        ``parts`` (``(runtime_name, seconds)`` pairs), the base processing
        leaf, and the root close.  The sampling gate already ran in
        :meth:`begin_identify`, so the exchange is kept unconditionally."""
        events = self._events
        for name, extra in parts:
            events.append(
                ("l", name, _IDENTIFY_CATEGORIES.get(name, "other"), extra, None)
            )
        events.append(("l", "process", "other", base, None))
        kind = self._kind
        self.sampled[kind] = self.sampled.get(kind, 0) + 1
        if len(self.records) < MAX_TRACES:
            self.records.append((
                self._key, kind, self._start, "ok", False,
                delay, {"label": label}, events,
            ))
        else:
            self.traces_dropped += 1
        self.recording = False
        self._events = None

    # -- finalize --------------------------------------------------------------------

    def finalize(self, duration: float) -> TraceSummary:
        """Close the books: export the kept traces and return the picklable
        summary (``ScenarioResult.spans``).  The raw records are handed to
        the summary unrendered; export (when configured) is the first — and
        only — render."""
        summary = TraceSummary(
            sample=self.config.sample,
            ops=dict(sorted(self.ops.items())),
            sampled=dict(sorted(self.sampled.items())),
            traces_dropped=self.traces_dropped,
            pending=list(self.records),
        )
        if self.config.jsonl_path is not None:
            write_traces(summary.traces, self.config.jsonl_path)
        return summary
