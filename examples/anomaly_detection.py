#!/usr/bin/env python3
"""Meta-data analysis and anomaly detection (Section IV.B).

A passive measurement node learns each peer's agent-version string and
supported protocols through the identify protocol.  The paper uses that meta
data to characterise the population and to spot anomalies:

* go-ipfs agents that do **not** support Bitswap but announce ``/sbptp/`` —
  the signature of IPStorm botnet nodes hiding behind a go-ipfs 0.8.0 agent,
* peers that repeatedly announce/retract ``/ipfs/kad/1.0.0`` (DHT-Server ↔
  DHT-Client role flapping) or ``/libp2p/autonat/1.0.0``,
* agent up- and downgrades, including "dirty" locally-modified builds.

The run streams while it simulates: the streaming-metrics hub closes a
window every simulated two hours (scaled down for short runs) and this
example subscribes to those closes, printing identify/flap counts live and
flagging windows whose identify traffic bursts well above the running mean —
the online version of the post-hoc anomaly report that follows.

Run with::

    python examples/anomaly_detection.py
"""

import dataclasses
import os

from repro.analysis.plots import ascii_bar_chart
from repro.core.metadata import analyze_metadata
from repro.obs.config import ObsConfig
from repro.scenarios.registry import build_scenario_config
from repro.simulation.scenario import Scenario

#: fast-mode knobs: CI's examples-smoke job shrinks every example through
#: these without touching the documented default scale
N_PEERS = int(os.environ.get("REPRO_EXAMPLE_PEERS", "800"))
DURATION_DAYS = float(os.environ.get("REPRO_EXAMPLE_DAYS", "1.0"))

#: a window fires live output every 2 simulated hours at the default scale;
#: short fast-mode runs shrink it so they still stream a handful of windows
WINDOW_SECONDS = min(2 * 3600.0, max(300.0, DURATION_DAYS * 86400.0 / 8))

#: identify traffic this far above the running mean is flagged as a burst
BURST_FACTOR = 1.5


def _hours(seconds: float) -> str:
    return f"{seconds / 3600.0:5.1f}h"


def streaming_run() -> "Scenario":
    """Run P4 with the metrics hub attached, narrating each closed window."""
    config = build_scenario_config(
        "p4", N_PEERS, DURATION_DAYS, seed=5, overrides={"crawler": False}
    )
    config = dataclasses.replace(
        config,
        population=dataclasses.replace(
            config.population, obs=ObsConfig(window=WINDOW_SECONDS)
        ),
    )
    scenario = Scenario(config)
    seen = {"windows": 0, "identify": 0}

    def on_window(payload: dict) -> None:
        counters = payload["counters"]
        identify = counters.get("fabric.identify", 0)
        flaps = counters.get("meta.role_flip", 0)
        autonat = counters.get("meta.autonat_flip", 0)
        mean = seen["identify"] / seen["windows"] if seen["windows"] else 0.0
        burst = (
            f"  ← identify burst ({identify / mean:.1f}× mean)"
            if seen["windows"] and mean > 0 and identify > BURST_FACTOR * mean
            else ""
        )
        print(
            f"  [{_hours(payload['start'])}–{_hours(payload['end'])}] "
            f"identify {identify:4d}, role flaps {flaps:3d}, "
            f"autonat flips {autonat:3d}{burst}"
        )
        seen["windows"] += 1
        seen["identify"] += identify

    scenario.network.obs.hub.subscribe(on_window)
    return scenario


def main() -> None:
    print("Simulating a P4-style measurement for the meta-data analysis…")
    print(f"\nLive windows ({WINDOW_SECONDS / 3600.0:.2g}h each) while the run streams:")
    result = streaming_run().run()
    dataset = result.dataset("go-ipfs")
    report = analyze_metadata(dataset, group_threshold=2)

    # -- population composition --------------------------------------------------------
    agents = report.agents
    print(
        f"\nAgent composition of {agents.total_peers} PIDs: "
        f"{agents.goipfs_peers} go-ipfs, {agents.hydra_peers} hydra, "
        f"{agents.crawler_peers} crawler, {agents.other_peers} other, "
        f"{agents.missing_peers} without identify"
    )
    print("\nAgent occurrences (grouped, Fig. 3 style):")
    print(ascii_bar_chart(agents.grouped, max_rows=15))

    protocols = report.protocols
    print("\nMost common protocols (Fig. 4 style):")
    print(ascii_bar_chart(dict(protocols.top_protocols(12)), max_rows=12))

    # -- anomalies ---------------------------------------------------------------------------
    print("\nAnomaly indicators:")
    print(
        f"  go-ipfs agents without Bitswap support: {protocols.goipfs_without_bitswap} "
        f"(of which {protocols.goipfs_with_sbptp} announce /sbptp/ — storm-like)"
    )
    print(f"  peers without any identify information: {agents.missing_peers}")

    # -- version changes ------------------------------------------------------------------------
    versions = report.versions
    print(
        f"\ngo-ipfs version changes: {versions.upgrades} upgrades, "
        f"{versions.downgrades} downgrades, {versions.changes} commit-only changes "
        f"(main–main {versions.main_to_main}, dirty–dirty {versions.dirty_to_dirty}, "
        f"cross {versions.dirty_to_main + versions.main_to_dirty})"
    )

    # -- protocol flapping -------------------------------------------------------------------------
    print(
        f"\nRole flapping: {report.kad_flaps.peers} peers changed their /ipfs/kad/1.0.0 "
        f"announcement {report.kad_flaps.changes} times "
        f"({report.kad_flaps.changes_per_peer:.1f} changes per flapping peer)"
    )
    print(
        f"Autonat flapping: {report.autonat_flaps.peers} peers, "
        f"{report.autonat_flaps.changes} changes"
    )
    print(
        "\nAs the paper notes, exotic agent/protocol combinations are stable enough to\n"
        "re-identify peers across PID changes — useful for measurement, concerning for privacy."
    )


if __name__ == "__main__":
    main()
