"""Stress-scenario catalog — churn regimes beyond the paper's live workload.

Runs the registered stress scenarios at benchmark scale and regenerates a
comparison table (the scenario-diversity analogue of Table II): per scenario
the recorded PIDs, connections, durations, and trim share at the primary
vantage point.  The shape claims assert that each stress regime actually
moves the measurement the way it is designed to.
"""

from functools import lru_cache

from conftest import _env_float, _env_int, BENCH_SEED

from repro.analysis.sweep_report import aggregate_table
from repro.core.records import primary_dataset_label
from repro.scenarios import run_scenario_by_name, scenario_names
from repro.simulation.churn_models import DAY
from repro.sweep import summarize_cell

SCENARIO_PEERS = 400
SCENARIO_DAYS = 0.25


def _bench_scale():
    peers = _env_int("REPRO_BENCH_PEERS") or SCENARIO_PEERS
    days = _env_float("REPRO_BENCH_DAYS") or SCENARIO_DAYS
    return peers, days


@lru_cache(maxsize=None)
def stress_summaries():
    peers, days = _bench_scale()
    return tuple(
        summarize_cell(name, peers, days, BENCH_SEED)
        for name in scenario_names("stress")
    )


def build_scenario_table():
    return aggregate_table(list(stress_summaries()))


def test_stress_scenario_catalog(benchmark):
    summaries = {s["scenario"]: s for s in stress_summaries()}
    table = benchmark(build_scenario_table)
    print()
    print(table.render())

    def primary(summary):
        return summary["datasets"][primary_dataset_label(summary["datasets"])]

    def churn(summary):
        return summary["churn"][primary_dataset_label(summary["datasets"])]

    # The flash crowd concentrates connection arrivals inside its burst
    # window: the per-second arrival rate in the burst clearly exceeds the
    # rate outside it.  The margin is moderate because the organic population
    # keeps reconnecting throughout the window — exactly the signal-to-noise
    # problem a live measurement of a flash crowd would face.
    peers, days = _bench_scale()
    result = run_scenario_by_name(
        "flash-crowd", n_peers=peers, duration_days=days, seed=BENCH_SEED
    )
    duration = days * DAY
    burst_start = duration * 0.30
    burst_end = burst_start + min(2 * 3600.0, max(duration * 0.25, 60.0))
    opened = [c.opened_at for c in result.dataset("go-ipfs").connections]
    in_burst = sum(1 for t in opened if burst_start <= t < burst_end)
    outside = len(opened) - in_burst
    burst_rate = in_burst / (burst_end - burst_start)
    outside_rate = outside / (duration - (burst_end - burst_start))
    assert burst_rate > 1.15 * outside_rate

    # a client-heavy population against 600/900 watermarks trims hardest and
    # keeps connections shortest
    assert churn(summaries["client-heavy"])["trim_share"] == max(
        churn(s)["trim_share"] for s in summaries.values()
    )
    assert churn(summaries["client-heavy"])["avg_duration"] == min(
        churn(s)["avg_duration"] for s in summaries.values()
    )

    # six hydra heads: the union dataset aggregates every head's records
    hydra = summaries["hydra-scaling"]
    heads = [label for label in hydra["datasets"] if label.startswith("hydra-H")]
    assert len(heads) == 6
    assert hydra["datasets"]["hydra"]["peers"] >= max(
        hydra["datasets"][h]["peers"] for h in heads
    )

    # only the crawler scenario walks the DHT
    assert summaries["crawler-vs-passive-under-burst"]["queries_sent"] > 0
    assert all(
        s["queries_sent"] == 0
        for name, s in summaries.items()
        if name != "crawler-vs-passive-under-burst"
    )
