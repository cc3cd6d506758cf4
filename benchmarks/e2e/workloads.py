"""The four benchmark workloads: what runs, at which size, and why.

Sizes are part of the benchmark: a change to one is a change to the
benchmark, not to the program, and the baseline is measured again after it.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import List, Tuple

E2E_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(E2E_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: population and simulated days of every pipeline under ``--smoke``
SMOKE_PEERS = 80
SMOKE_DAYS = 0.02

#: worker processes of the ``sweep-cli`` pool (= ``nproc`` of the reference box)
SWEEP_WORKERS = 2

#: ``--metrics`` window (the CLI's default) and ``--trace-sample`` of the sweep
SWEEP_METRICS_WINDOW = 300.0
SWEEP_TRACE_SAMPLE = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    #: one line for BENCHMARK.json: why this workload is in the benchmark
    why: str
    #: registered scenario names; more than one makes it a sweep of the CLI
    scenarios: Tuple[str, ...]
    peers: int
    days: float
    #: whether the pipeline ends in the paper's network-size estimate
    netsize: bool = False
    #: whether a full-size run must have attempted content retrievals
    retrieves: bool = False

    @property
    def is_sweep(self) -> bool:
        return len(self.scenarios) > 1

    def size(self, smoke: bool) -> Tuple[int, float]:
        return (SMOKE_PEERS, SMOKE_DAYS) if smoke else (self.peers, self.days)

    def sweep_seeds(self, seed: int) -> List[int]:
        return [seed, seed + 1]

    def operations(self) -> int:
        """Operations one run attempts: the run itself, or its sweep cells."""
        return len(self.scenarios) * 2 if self.is_sweep else 1

    def sweep_argv(self, seed: int, out_dir: str, smoke: bool) -> List[str]:
        """The real CLI invocation of the ``sweep-cli`` workload."""
        peers, days = self.size(smoke)
        return [
            sys.executable, "-m", "repro.sweep",
            "--scenarios", ",".join(self.scenarios),
            "--seeds", ",".join(str(s) for s in self.sweep_seeds(seed)),
            "--peers", str(peers),
            "--duration", f"{days}d",
            "--metrics", "--trace-sample", str(SWEEP_TRACE_SAMPLE),
            "--workers", str(SWEEP_WORKERS),
            "--no-progress", "--out", out_dir, "--force",
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="passive-steady",
            why=(
                "Paper core: p0 vantage points + crawler, 1200 peers x 1.5 d; drain is ~90% "
                "of wall (engine, node/head handlers, connmgr, recorder), DHT walks unused"
            ),
            scenarios=("p0",),
            peers=1200,
            days=1.5,
            netsize=True,
        ),
        Workload(
            name="setup-heavy",
            why=(
                "p2 at 20000 peers x 0.01 d: population, fabric and routing-table "
                "construction are >60% of wall (write-heavy add_peer), drain is a minority"
            ),
            scenarios=("p2",),
            peers=20000,
            days=0.01,
        ),
        Workload(
            name="content-fullstack",
            why=(
                "flash-crowd-large-blocks, 4000 peers x 0.5 d with content+netmodel+bandwidth: "
                "iterative DHT walks and the RPC path dominate, which passive-steady bypasses"
            ),
            scenarios=("flash-crowd-large-blocks",),
            peers=4000,
            days=0.5,
            retrieves=True,
        ),
        Workload(
            name="sweep-cli",
            why=(
                "The real CLI: 12 small cells with obs hub, span tracer, faults/adversary/"
                "netmodel, 2-worker pool and JSONL export; start-up and export costs show here"
            ),
            scenarios=(
                "crash-storm",
                "poisoned-routing-under-churn",
                "nat-heavy-crawl",
                "mixed-size-catalog",
                "sybil-netsize-inflation",
                "p3",
            ),
            peers=600,
            days=0.5,
        ),
    )
}
