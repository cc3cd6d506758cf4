"""Scaling-curve benchmark: events/sec at 1k / 10k / 100k peers.

Times one fixed workload (the P2 measurement period without the crawler) at
three population scales and writes ``BENCH_scaling.json``.  The small scales
run on a single fabric; the 100k point runs sharded, which is the intended
operating mode at that size (see ``repro/simulation/sharded.py``).

Each point records, besides wall times, the machine-independent
``events_processed`` fingerprint — ``benchmarks/check_regression.py``
compares those exactly and additionally fails when per-event throughput
degrades *superlinearly* between adjacent scale points (the curve is allowed
to be a constant factor slower on a slow runner, but not to bend).

Environment knobs:

* ``REPRO_SCALING_SCALES`` — comma-separated population sizes
  (default ``1000,10000,100000``; smoke runs use e.g. ``200,400``)
* ``REPRO_BENCH_SEED``     — seed (default 7)
* ``REPRO_BENCH_WORKERS``  — worker processes for the sharded point

Usage::

    PYTHONPATH=src python benchmarks/bench_scaling.py                # full curve
    PYTHONPATH=src python benchmarks/bench_scaling.py BENCH_out.json
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from typing import List, Optional, Sequence

from repro.scenarios import build_scenario_config
from repro.simulation.scenario import Scenario
from repro.simulation.sharded import run_sharded_scenario

DEFAULT_SNAPSHOT = "BENCH_scaling.json"
SCENARIO = "p2"
DURATION_DAYS = 0.01
#: populations simulated per point; the largest runs sharded
DEFAULT_SCALES = (1_000, 10_000, 100_000)
#: single-fabric up to (exclusive) this population, sharded beyond
SHARD_ABOVE = 50_000
SHARDS = 8


def _scales() -> Sequence[int]:
    raw = os.environ.get("REPRO_SCALING_SCALES", "")
    if not raw:
        return DEFAULT_SCALES
    try:
        scales = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise SystemExit(f"invalid REPRO_SCALING_SCALES={raw!r}")
    return scales or DEFAULT_SCALES


def _seed() -> int:
    raw = os.environ.get("REPRO_BENCH_SEED", "")
    try:
        return int(raw) if raw else 7
    except ValueError:
        return 7


def measure_point(n_peers: int, seed: int) -> dict:
    """Run the workload at one scale; wall-clock split into setup and run."""
    config = build_scenario_config(
        SCENARIO, n_peers=n_peers, duration_days=DURATION_DAYS, seed=seed
    )
    if n_peers >= SHARD_ABOVE:
        config = dataclasses.replace(config, engine="sharded", engine_shards=SHARDS)
        started = time.perf_counter()
        result = run_sharded_scenario(config)
        run_seconds = time.perf_counter() - started
        setup_seconds = 0.0  # population generation happens inside the shards
        engine = "sharded"
        shards = SHARDS
    else:
        started = time.perf_counter()
        scenario = Scenario(config)
        setup_seconds = time.perf_counter() - started
        started = time.perf_counter()
        result = scenario.run()
        run_seconds = time.perf_counter() - started
        engine = config.engine
        shards = 1
    wall = setup_seconds + run_seconds
    return {
        "n_peers": n_peers,
        "duration_days": DURATION_DAYS,
        "seed": seed,
        "engine": engine,
        "shards": shards,
        "setup_seconds": round(setup_seconds, 3),
        "run_seconds": round(run_seconds, 3),
        "wall_seconds": round(wall, 3),
        "events_processed": result.events_processed,
        "events_per_sec": round(result.events_processed / wall, 1) if wall > 0 else 0.0,
    }


def run_scaling_bench(out: Optional[str] = DEFAULT_SNAPSHOT) -> List[dict]:
    seed = _seed()
    points = []
    for n_peers in _scales():
        point = measure_point(n_peers, seed)
        points.append(point)
        print(
            f"{point['n_peers']:>8} peers  {point['engine']:<10} "
            f"setup {point['setup_seconds']:>7.2f}s  run {point['run_seconds']:>7.2f}s  "
            f"{point['events_processed']:>9} events  {point['events_per_sec']:>9.0f} ev/s"
        )
    snapshot = {
        "schema": "repro-bench-scaling/1",
        "scenario": SCENARIO,
        "duration_days": DURATION_DAYS,
        "seed": seed,
        "points": points,
    }
    if out:
        with open(out, "w") as handle:
            json.dump(snapshot, handle, indent=2)
            handle.write("\n")
        print(f"wrote {out}")
    return points


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    out = argv[0] if argv else DEFAULT_SNAPSHOT
    run_scaling_bench(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
