"""Trace-overhead gate: causal span tracing must stay near-free.

Runs one fixed workload with tracing disabled (the default
``population.trace=None``) and enabled at full sampling, in interleaved
off/on pairs under a CPU timer, and fails when the traced variant costs more
than the tolerated overhead (default 5 %).  The span tracer is supposed to
be a handful of list appends per traced operation plus one hash per root;
this gate keeps that promise honest as instrumentation points accumulate.

The timing protocol extends ``bench_obs.py``'s — built for noisy shared
runners: ``process_time`` (ignores co-tenants), GC parked around each run
(collector pauses dwarf a 5 % bound), one untimed warm-up per variant, and
interleaved off/on pairs whose order alternates.  The gated number is the
*interquartile mean of the per-pair on/off ratios*: the two runs of a pair
are adjacent in time, so slow-machine noise hits both and partially cancels
in the ratio; trimming the top and bottom quarter then discards the pairs
where a frequency shift or steal-time burst landed inside exactly one run
(observed at ±13 % on shared runners), and averaging the middle half
cancels the remaining symmetric drift — empirically far steadier than
either the plain median or comparing each variant's best-of-N minimum,
which couples two uncorrelated extremes.  The best-of ratio is still
printed as a diagnostic.

The snapshot written to ``BENCH_trace.json`` holds only machine-independent
fields — event counts of both variants, per-kind traced-operation and
sampled counts, total traces — so the committed baseline doubles as a
determinism fingerprint: CI regenerates it and compares byte-for-byte,
which also proves tracing leaves the simulation's event stream untouched
(both variants must process the same event count).  Timing numbers go to
stdout only.

Environment knobs:

* ``REPRO_TRACE_TOLERANCE`` — allowed fractional overhead (default 0.05)
* ``REPRO_TRACE_REPEATS``   — off/on timing pairs for the gated
  interquartile mean (default 12)
* ``REPRO_BENCH_PEERS`` / ``REPRO_BENCH_DAYS`` / ``REPRO_BENCH_SEED`` —
  workload scale overrides (shared with the other benchmarks)

Usage::

    PYTHONPATH=src python benchmarks/bench_trace.py [BENCH_trace.json]
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import statistics
import sys
import time
from typing import List, Tuple

from conftest import BENCH_SEED, _env_float, _env_int

from repro.obs.spans import TraceConfig
from repro.scenarios import build_scenario_config
from repro.simulation.scenario import Scenario

DEFAULT_SNAPSHOT = "BENCH_trace.json"
SNAPSHOT_SCHEMA = "repro-bench-trace/1"
#: the same full-stack workload the metrics gate uses (bandwidth + content
#: runtimes) — the gate measures the marginal cost of span recording on a
#: representative fabric with every traced operation kind exercised
SCENARIO = "flash-crowd-large-blocks"
TRACE_PEERS = 600
#: long enough that one run takes O(1s) — the 5 % gate needs the timing
#: signal to dominate scheduler jitter — but not longer: retained traces
#: grow with duration and at some point their cache footprint, not the
#: tracer's code, dominates the measured ratio
TRACE_DAYS = 0.5
#: full sampling: the worst case — every operation builds its span tree
TRACE_SAMPLE = 1.0
DEFAULT_TOLERANCE = 0.05
#: divisible by 4 so both within-pair orders run equally often (see
#: ``_measure``) and the interquartile trim keeps a balanced middle half
DEFAULT_REPEATS = 12
TOLERANCE_ENV = "REPRO_TRACE_TOLERANCE"
REPEATS_ENV = "REPRO_TRACE_REPEATS"


def _tolerance() -> float:
    raw = os.environ.get(TOLERANCE_ENV, "")
    try:
        tolerance = float(raw) if raw else DEFAULT_TOLERANCE
    except ValueError:
        raise SystemExit(f"invalid {TOLERANCE_ENV}={raw!r} (expected a float)")
    if tolerance <= 0:
        raise SystemExit(f"{TOLERANCE_ENV} must be positive, got {tolerance}")
    return tolerance


def _repeats() -> int:
    repeats = _env_int(REPEATS_ENV) or DEFAULT_REPEATS
    if repeats < 1:
        raise SystemExit(f"{REPEATS_ENV} must be >= 1, got {repeats}")
    return repeats


def _config(with_trace: bool):
    peers = _env_int("REPRO_BENCH_PEERS") or TRACE_PEERS
    days = _env_float("REPRO_BENCH_DAYS") or TRACE_DAYS
    config = build_scenario_config(
        SCENARIO, n_peers=peers, duration_days=days, seed=BENCH_SEED
    )
    if with_trace:
        config = dataclasses.replace(
            config,
            population=dataclasses.replace(
                config.population, trace=TraceConfig(sample=TRACE_SAMPLE)
            ),
        )
    return config


def _timed_run(with_trace: bool) -> Tuple[float, object]:
    """One run under a CPU timer, GC parked: process_time ignores the other
    tenants of a shared runner, and collector pauses would otherwise swamp a
    5 % bound."""
    config = _config(with_trace)
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        result = Scenario(config).run()
        return time.process_time() - start, result
    finally:
        gc.enable()


def _iqr_mean(ratios: List[float]) -> float:
    """Mean of the middle half of ``ratios`` (falls back to the median when
    fewer than four pairs leave nothing after trimming)."""
    if len(ratios) < 4:
        return statistics.median(ratios)
    ordered = sorted(ratios)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter: len(ordered) - quarter])


def _measure(repeats: int) -> Tuple[float, object, float, object, List[float]]:
    """``repeats`` interleaved off/on pairs after one untimed warm-up each.

    The order within each pair alternates (off-first on even pairs, on-first
    on odd): the second run of a pair consistently pays a small warm-cache /
    frequency-governor penalty, and alternating puts both variants in the
    favourable first slot equally often so the bias cancels out of the
    median pair ratio.

    Returns the best CPU seconds per variant (diagnostic only), both
    results, and the per-pair on/off ratios — the gated overhead is the
    interquartile mean of those ratios, since the two runs of a pair share
    their noise and the trim discards the pairs where they didn't.
    """
    _timed_run(False)
    _timed_run(True)
    best_off = best_on = float("inf")
    baseline = traced = None
    ratios: List[float] = []
    for pair in range(repeats):
        if pair % 2 == 0:
            off_wall, baseline = _timed_run(False)
            on_wall, traced = _timed_run(True)
        else:
            on_wall, traced = _timed_run(True)
            off_wall, baseline = _timed_run(False)
        best_off = min(best_off, off_wall)
        best_on = min(best_on, on_wall)
        ratios.append(on_wall / off_wall)
    return best_off, baseline, best_on, traced, ratios


def snapshot_payload(baseline, traced) -> dict:
    """Machine-independent fingerprint of both variants (no wall-clock)."""
    summary = traced.spans
    peers = _env_int("REPRO_BENCH_PEERS") or TRACE_PEERS
    days = _env_float("REPRO_BENCH_DAYS") or TRACE_DAYS
    return {
        "schema": SNAPSHOT_SCHEMA,
        "scenario": SCENARIO,
        "n_peers": peers,
        "duration_days": days,
        "seed": BENCH_SEED,
        "sample": TRACE_SAMPLE,
        "baseline": {"events_processed": baseline.events_processed},
        "traced": {
            "events_processed": traced.events_processed,
            "ops": dict(sorted(summary.ops.items())),
            "sampled": dict(sorted(summary.sampled.items())),
            "traces": len(summary.traces),
            "traces_dropped": summary.traces_dropped,
        },
    }


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    out_path = args[0] if args else DEFAULT_SNAPSHOT
    tolerance = _tolerance()
    repeats = _repeats()

    overheads: List[float] = []
    # One re-measure on an over-tolerance reading: the estimator is robust
    # to per-run jitter but not to a frequency/steal-time phase covering a
    # whole measurement window; a genuine regression fails both attempts.
    for attempt in range(2):
        off_wall, baseline, on_wall, traced, ratios = _measure(repeats)
        if traced.spans is None:
            raise SystemExit("trace-enabled run returned no TraceSummary")

        if attempt == 0:
            payload = snapshot_payload(baseline, traced)
            with open(out_path, "w") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
                handle.write("\n")

        overhead = _iqr_mean(ratios) - 1.0
        overheads.append(overhead)
        best_ratio = on_wall / off_wall - 1.0 if off_wall > 0 else 0.0
        off_rate = baseline.events_processed / off_wall if off_wall > 0 else 0.0
        on_rate = traced.events_processed / on_wall if on_wall > 0 else 0.0
        total_ops = sum(payload["traced"]["ops"].values())
        print(
            f"tracing off: {off_wall:.3f}s cpu best-of-{repeats} "
            f"({off_rate:,.0f} ev/s)\n"
            f"tracing on:  {on_wall:.3f}s cpu best-of-{repeats} "
            f"({on_rate:,.0f} ev/s), "
            f"{total_ops} traced ops, {payload['traced']['traces']} traces kept\n"
            f"overhead: {overhead:+.1%} interquartile mean of {repeats} pairs "
            f"(tolerance {tolerance:.0%}; best-of ratio {best_ratio:+.1%})"
        )
        if overhead <= tolerance:
            break
        if attempt == 0:
            print("over tolerance; re-measuring once to rule out a noise phase")
    print(f"wrote {out_path}")
    if min(overheads) > tolerance:
        print(
            f"FAIL: trace-enabled overhead {min(overheads):.1%} exceeds "
            f"{tolerance:.0%} tolerance in both measurements",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
