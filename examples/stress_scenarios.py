#!/usr/bin/env python3
"""Stress-scenario tour: what each churn regime does to a vantage point.

The paper measured one workload — the live IPFS network.  The scenario
registry adds controlled stress regimes on top of the same simulator: flash
crowds, diurnal cycles, correlated outages, client-heavy populations, hydra
head scaling, and the crawler racing a burst.  This example runs every stress
scenario at small scale and compares what the measurement node records.

Run with::

    python examples/stress_scenarios.py
"""

from repro.analysis.sweep_report import render_aggregate
from repro.core.records import primary_dataset_label
from repro.scenarios.registry import scenario, scenario_names
from repro.sweep import summarize_cell

import os

#: fast-mode knobs: CI's examples-smoke job shrinks every example through
#: these without touching the documented default scale
N_PEERS = int(os.environ.get("REPRO_EXAMPLE_PEERS", "300"))
DURATION_DAYS = float(os.environ.get("REPRO_EXAMPLE_DAYS", "0.25"))
SEED = 7


def main() -> None:
    names = scenario_names("stress")
    print(
        f"Running {len(names)} stress scenarios at {N_PEERS} peers / "
        f"{DURATION_DAYS} simulated days (seed {SEED})…"
    )
    summaries = []
    for name in names:
        print(f"  {name}: {scenario(name).description}")
        summaries.append(summarize_cell(name, N_PEERS, DURATION_DAYS, SEED))

    print()
    print(render_aggregate(summaries))

    client_heavy = next(s for s in summaries if s["scenario"] == "client-heavy")
    diurnal = next(s for s in summaries if s["scenario"] == "diurnal-week")
    label = primary_dataset_label(client_heavy["datasets"])
    diurnal_label = primary_dataset_label(diurnal["datasets"])
    print(
        "The paper's central claim survives every regime: trimming dominates "
        f"closes (client-heavy at 600/900 watermarks: trim share "
        f"{client_heavy['churn'][label]['trim_share']:.2f}, average duration "
        f"{client_heavy['churn'][label]['avg_duration']:.0f} s vs. "
        f"{diurnal['churn'][diurnal_label]['avg_duration']:.0f} s "
        "under relaxed 18k/20k watermarks)."
    )


if __name__ == "__main__":
    main()
