"""One run of one workload, in the fresh process ``run.py`` spawned for it.

Scenario workloads run the paper pipeline ``build_scenario_config -> Scenario
-> run -> sweep.summarize_result -> JSON file``.  With ``--trace-out`` the
layer wrappers of :mod:`tracing` are installed first and the spans are written
out at the end; the ``sweep-cli`` workload is traced by calling
``repro.sweep.run_sweep`` in this process with one worker, so its spans
survive (its timed runs go through the real CLI and never reach this file).

Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from workloads import SRC_DIR, SWEEP_METRICS_WINDOW, SWEEP_TRACE_SAMPLE, WORKLOADS

#: the scenario workloads' artifact inside ``--out-dir``
CELL_FILE = "cell.json"


def _dir_bytes(path: str, suffix: str = "") -> int:
    return sum(
        os.path.getsize(os.path.join(path, name))
        for name in os.listdir(path)
        if name.endswith(suffix)
    )


def main() -> int:
    entered = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() of the parent just before the spawn")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    # Every reported time counts from the spawn, so interpreter start-up and
    # imports are part of set-up, as they are for a user.
    origin = entered - (time.time() - args.spawned_at)

    sys.path.insert(0, SRC_DIR)
    from repro import sweep
    from repro.core import netsize
    from repro.scenarios import registry
    from repro.simulation.scenario import Scenario

    tracer = None
    if args.trace_out is not None:
        import tracing

        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}", origin)
        tracing.install(tracer)
        tracer.span("python.startup", origin, time.perf_counter())

    workload = WORKLOADS[args.workload]
    peers, days = workload.size(args.smoke)
    report = {}
    if workload.is_sweep:
        summaries, _failures = sweep.run_sweep(
            list(workload.scenarios), workload.sweep_seeds(args.seed), [peers], days,
            args.out_dir, workers=1, force=True, metrics_window=SWEEP_METRICS_WINDOW,
            trace_sample=SWEEP_TRACE_SAMPLE, progress=False,
        )
        events = sum(summary["events_processed"] for summary in summaries)
    else:
        name = workload.scenarios[0]
        config = registry.build_scenario_config(
            name, n_peers=peers, duration_days=days, seed=args.seed
        )
        scenario = Scenario(config)
        report["setup_s"] = time.perf_counter() - origin
        result = scenario.run()
        summary = sweep.summarize_result(name, peers, days, args.seed, result)
        events = result.events_processed
        if workload.netsize:
            estimate = netsize.estimate_network_size(result.go_ipfs()).estimated_network_size
            truth = len(result.population.ip_groups())
            report["netsize_rel_err"] = abs(estimate - truth) / truth
        with open(os.path.join(args.out_dir, CELL_FILE), "w") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
    finished = time.perf_counter()
    report["events"] = events

    if tracer is not None:
        traced_wall_s = finished - origin
        tracer.counters["engine.events"] = events
        layers = tracing.layer_metrics(tracer, traced_wall_s)
        layers["obs.metrics_bytes"] = _dir_bytes(args.out_dir, "__metrics.jsonl")
        layers["obs.trace_bytes"] = _dir_bytes(args.out_dir, "__traces.jsonl")
        layers["sweep.artifact_bytes"] = _dir_bytes(args.out_dir)
        layers["netsize.rel_err"] = report.get("netsize_rel_err", 0.0)
        report["traced_wall_s"] = traced_wall_s
        report["layers"] = layers
        payload = tracer.export()
        payload["workload"] = args.workload
        payload["traced_wall_s"] = traced_wall_s
        with open(args.trace_out, "w") as handle:
            handle.write(json.dumps(payload))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
