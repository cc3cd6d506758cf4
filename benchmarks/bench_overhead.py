"""Overhead gate for the two opt-in telemetry layers: ``obs`` and ``trace``.

Runs one fixed full-stack workload with the layer disabled (the default
``population.obs=None`` / ``population.trace=None``) and enabled — streaming
metrics on a 300 s window, or span tracing at full sampling — in interleaved
off/on pairs under a CPU timer, and fails when the enabled variant costs more
than ``TOLERANCE``.  Metrics are meant to be an integer increment per fabric
event plus one flush per window, tracing a handful of list appends per traced
operation plus one hash per root; this gate bounds what they cost as
instruments accumulate.

The timing protocol is built for noisy shared runners: ``process_time``
(ignores co-tenants), GC parked around each run, one untimed warm-up per
variant, and ``PAIRS`` interleaved off/on pairs whose order alternates (the
second run of a pair pays a small warm-cache / frequency-governor penalty;
alternating gives both variants the first slot equally often).  The gated
number is the *interquartile mean of the per-pair on/off ratios*: the two
runs of a pair are adjacent in time, so slow-machine noise hits both and
partly cancels in the ratio; trimming the top and bottom quarter discards the
pairs where a frequency shift or steal-time burst landed inside one run, and
averaging the middle half cancels the remaining symmetric drift.  The ratio
of each variant's best run is printed as a diagnostic.

``TOLERANCE`` and ``PAIRS`` are measured, not inherited.  Readings of this
protocol on the tree that introduced it (simulator unchanged from its parent,
shared 2-vCPU box), in the order taken.  With 12 pairs, 17 and 16 runs:

    obs    +9.0  +8.0  +5.3  +3.8  +7.6  +5.3  +5.7  +6.4  +5.1  +8.8  +7.2
           +12.1 +5.0  +4.5  +6.4  +13.4 +9.9 %
    trace  +4.8  +9.6  +10.0 +6.5  +6.5  +7.7  +8.2  +7.5  +7.7  +3.8  +7.2
           +4.3  +14.0 +6.9  +7.7  +15.7 %

— a 12-point spread on identical code (single pairs read −13 … +45 %), so the
pair count was doubled instead of keeping the one retry the 12-pair trace gate
had.  With 24 pairs: 3 probes, 8 consecutive runs per layer, then one more
each after the last edit to this file:

    obs    +7.3  +8.0  +7.3  +5.2  +6.6  +8.2  +9.5  +7.6 | +4.9 %
    trace  +10.6 +8.6  +8.4 | +6.4  +5.9  +7.3  +8.3  +8.0  +5.3  +5.8  +7.0
           | +10.0 %

Two of those twenty-one fail 0.10, none fails 0.15: the constant is 0.15, the
smallest of 0.10 / 0.15 / 0.20 that every reading passes.  (The "< 5 %" both
layers were written against no longer holds — ≈ 7 % today: PRs 14 / 19 / 20
cut the untraced run by ≈ 40 % and the telemetry cost stayed.  Bringing it
back down is an open ROADMAP item.)

The snapshot (``BENCH_obs.json`` / ``BENCH_trace.json``) holds only
machine-independent fields — event counts of both variants, closed windows
and run-total counters, or per-kind traced-operation counts and kept traces —
so the committed file is a determinism fingerprint: CI regenerates it and
compares byte-for-byte, which also proves the layer leaves the simulation's
event stream untouched.  Timing numbers go to stdout only.

Usage::

    PYTHONPATH=src python benchmarks/bench_overhead.py obs [BENCH_obs.json]
    PYTHONPATH=src python benchmarks/bench_overhead.py trace [BENCH_trace.json]
"""

from __future__ import annotations

import dataclasses
import gc
import json
import statistics
import sys
import time
from typing import List, Tuple

from repro.obs.config import ObsConfig
from repro.obs.spans import TraceConfig
from repro.scenarios.registry import build_scenario_config
from repro.simulation.scenario import Scenario

#: a full-stack workload (bandwidth + content runtimes, retrieval latency
#: histograms, every traced operation kind) — the gate measures the marginal
#: cost of a layer on a representative fabric, not on the degenerate one
#: where it is the only runtime attached
SCENARIO = "flash-crowd-large-blocks"
PEERS = 600
#: one run is ≈ 0.3 s of CPU, short enough that identical trees read a few
#: points apart; not longer, though: retained traces grow with duration and at
#: some point their cache footprint, not the tracer's code, is what the ratio
#: measures
DAYS = 0.5
SEED = 7
WINDOW_SECONDS = 300.0
#: full sampling: the worst case — every operation builds its span tree
TRACE_SAMPLE = 1.0
#: allowed fractional overhead (see the readings in the module docstring)
TOLERANCE = 0.15
#: divisible by 4 so both within-pair orders run equally often and the
#: interquartile trim keeps a balanced middle half; 24 because single pairs
#: read −13 … +45 % on a shared box and 12 left the estimate ± 5 points wide
PAIRS = 24

#: layer -> the value of the like-named population field that switches it on
LAYERS = {
    "obs": ObsConfig(window=WINDOW_SECONDS),
    "trace": TraceConfig(sample=TRACE_SAMPLE),
}


def _timed_run(layer: str, enabled: bool) -> Tuple[float, object]:
    """One run under a CPU timer, GC parked: process_time ignores the other
    tenants of a shared runner, and collector pauses would otherwise swamp
    the bound."""
    config = build_scenario_config(SCENARIO, PEERS, DAYS, SEED)
    if enabled:
        population = dataclasses.replace(config.population, **{layer: LAYERS[layer]})
        config = dataclasses.replace(config, population=population)
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        result = Scenario(config).run()
        return time.process_time() - start, result
    finally:
        gc.enable()


def iqr_mean(ratios: List[float]) -> float:
    """Mean of the middle half of ``ratios`` (the median when fewer than four
    pairs leave nothing after trimming)."""
    if len(ratios) < 4:
        return statistics.median(ratios)
    ordered = sorted(ratios)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter : len(ordered) - quarter])


def _measure(layer: str) -> Tuple[float, object, float, object, List[float]]:
    """``PAIRS`` alternating off/on pairs after one untimed warm-up each.

    Returns the best CPU seconds per variant (diagnostic only), both results,
    and the per-pair on/off ratios whose interquartile mean is gated.
    """
    _timed_run(layer, False)
    _timed_run(layer, True)
    best_off = best_on = float("inf")
    baseline = enabled = None
    ratios: List[float] = []
    for pair in range(PAIRS):
        if pair % 2 == 0:
            off_cpu, baseline = _timed_run(layer, False)
            on_cpu, enabled = _timed_run(layer, True)
        else:
            on_cpu, enabled = _timed_run(layer, True)
            off_cpu, baseline = _timed_run(layer, False)
        best_off = min(best_off, off_cpu)
        best_on = min(best_on, on_cpu)
        ratios.append(on_cpu / off_cpu)
    return best_off, baseline, best_on, enabled, ratios


def snapshot_payload(layer: str, baseline, enabled) -> dict:
    """Machine-independent fingerprint of both variants (no wall-clock)."""
    payload = {
        "schema": f"repro-bench-{layer}/1",
        "scenario": SCENARIO,
        "n_peers": PEERS,
        "duration_days": DAYS,
        "seed": SEED,
        "baseline": {"events_processed": baseline.events_processed},
    }
    if layer == "obs":
        summary = enabled.metrics
        payload["window_seconds"] = WINDOW_SECONDS
        payload["metrics"] = {
            "events_processed": enabled.events_processed,
            "windows_closed": summary.windows_closed,
            "observations": summary.observations,
            "windows_dropped": summary.windows_dropped,
            "counters": summary.counters,
        }
    else:
        summary = enabled.spans
        payload["sample"] = TRACE_SAMPLE
        payload["traced"] = {
            "events_processed": enabled.events_processed,
            "ops": dict(sorted(summary.ops.items())),
            "sampled": dict(sorted(summary.sampled.items())),
            "traces": len(summary.traces),
            "traces_dropped": summary.traces_dropped,
        }
    return payload


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] not in LAYERS or len(args) > 2:
        print(f"usage: bench_overhead.py <{'|'.join(LAYERS)}> [out.json]", file=sys.stderr)
        return 2
    layer = args[0]
    out_path = args[1] if len(args) > 1 else f"BENCH_{layer}.json"

    off_cpu, baseline, on_cpu, enabled, ratios = _measure(layer)
    with open(out_path, "w") as handle:
        json.dump(snapshot_payload(layer, baseline, enabled), handle, indent=1, sort_keys=True)
        handle.write("\n")

    overhead = iqr_mean(ratios) - 1.0
    print(
        f"{layer} off: {off_cpu:.3f}s cpu best-of-{PAIRS} "
        f"({baseline.events_processed / off_cpu:,.0f} ev/s)\n"
        f"{layer} on:  {on_cpu:.3f}s cpu best-of-{PAIRS} "
        f"({enabled.events_processed / on_cpu:,.0f} ev/s)\n"
        f"overhead: {overhead:+.2%} interquartile mean of {PAIRS} pairs "
        f"(tolerance {TOLERANCE:.0%}; best-of ratio {on_cpu / off_cpu - 1.0:+.1%})\n"
        f"wrote {out_path}"
    )
    if overhead > TOLERANCE:
        print(
            f"FAIL: {layer}-enabled overhead {overhead:.1%} exceeds {TOLERANCE:.0%} tolerance",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
