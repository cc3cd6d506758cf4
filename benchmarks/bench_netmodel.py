"""Network-realism regimes — reachability/latency vs measurement quality.

Runs the netmodel scenario family at several strengths and asserts the regime
shapes the subsystem is designed around:

* a higher unreachable (NAT) fraction ⇒ a monotonically larger crawler
  undercount — the crawler discovers the NATed servers in routing tables but
  cannot dial them, while the passive vantage point still records their
  inbound connections (the paper's crawler-undercount-vs-passive gap);
* a higher inter-region RTT scale ⇒ higher retrieval-latency percentiles
  (p90 stretches with every round trip) and more time-bounded lookups giving
  up before they converge.

Run as a script to (re)generate the ``BENCH_netmodel.json`` artifact the CI
perf-regression job collects::

    PYTHONPATH=src python benchmarks/bench_netmodel.py [out.json]

The payload is deterministic — no timestamps, no wall-clock fields — so two
runs at the same scale are byte-identical.
"""

import json
import sys
from functools import lru_cache

from conftest import BENCH_SEED, bench_scale, run_registered

from repro.analysis.cdf import EmpiricalCDF
from repro.analysis.reachability_report import crawler_coverage, reachability_metrics

NETMODEL_PEERS = 300
NETMODEL_DAYS = 0.15

#: extra NAT share on top of the ground-truth behind_nat peers
NAT_SHARES = (0.05, 0.35, 0.7)
#: global multiplier on every inter-region RTT
RTT_SCALES = (1.0, 4.0, 12.0)


def _run(name, **overrides):
    return run_registered(name, NETMODEL_PEERS, NETMODEL_DAYS, **overrides)


@lru_cache(maxsize=None)
def nat_runs():
    return {s: _run("nat-heavy-crawl", nat_share=s) for s in NAT_SHARES}


@lru_cache(maxsize=None)
def latency_runs():
    return {s: _run("high-latency-retrieval", rtt_scale=s) for s in RTT_SCALES}


def undercount(result) -> float:
    """Share of crawler-discovered peers the crawler could never reach."""
    coverage = crawler_coverage(result)
    return coverage["undercount_vs_discovered"] if coverage else 0.0


def retrieve_p90(result) -> float:
    """p90 of the simulated retrieval latencies (accrued RTT + dial time)."""
    latencies = result.content.retrieve_latencies
    return EmpiricalCDF(latencies).quantile(0.9) if latencies else 0.0


def build_payload():
    """The BENCH_netmodel.json payload: per-regime strength → distortion."""
    peers, days = bench_scale(NETMODEL_PEERS, NETMODEL_DAYS)
    payload = {
        "schema": "repro-bench-netmodel/1",
        "n_peers": peers,
        "duration_days": days,
        "seed": BENCH_SEED,
        "nat": {},
        "latency": {},
    }
    for share, result in nat_runs().items():
        metrics = reachability_metrics(result)
        coverage = metrics.get("crawl", {})
        payload["nat"][f"{share:g}"] = {
            "unreachable_share": metrics["unreachable_share"],
            "union_discovered": coverage.get("union_discovered", 0),
            "union_reachable": coverage.get("union_reachable", 0),
            "undercount_vs_discovered": coverage.get("undercount_vs_discovered", 0.0),
            "passive_pids": coverage.get("passive_pids", 0),
            "undercount_vs_passive": coverage.get("undercount_vs_passive", 0.0),
            "dial_failure_rate": metrics["dial_failure_rate"],
        }
    for scale, result in latency_runs().items():
        metrics = reachability_metrics(result)
        content = result.content
        payload["latency"][f"{scale:g}"] = {
            "mean_rtt": metrics["mean_rtt"],
            "retrieve_latency_p90": round(retrieve_p90(result), 4),
            "lookups_timed": metrics["lookups_timed"],
            "lookup_timeouts": metrics["lookup_timeouts"],
            "retrieval_success_rate": round(content.retrieval_success_rate, 6),
        }
    return payload


def assert_regime_shapes():
    """The regime-shape contract, shared by the pytest entry and script mode
    (CI runs the script once: asserts, then writes the artifact)."""
    nat = nat_runs()
    latency = latency_runs()

    # More NATed peers ⇒ the crawler reaches an ever-smaller share of what it
    # discovers, while the passive vantage point keeps seeing inbound dials.
    low, mid, high = (undercount(nat[s]) for s in NAT_SHARES)
    assert low < mid < high
    vs_passive = {s: crawler_coverage(nat[s])["undercount_vs_passive"] for s in NAT_SHARES}
    assert vs_passive[NAT_SHARES[0]] < vs_passive[NAT_SHARES[-1]]
    # The gap is the paper's: passive observes peers the crawler cannot reach.
    heavy_coverage = crawler_coverage(nat[NAT_SHARES[-1]])
    assert heavy_coverage["union_reachable"] < heavy_coverage["passive_pids"]

    # Higher RTT ⇒ retrieval p90 stretches and time-bounded walks expire.
    p90 = {s: retrieve_p90(latency[s]) for s in RTT_SCALES}
    assert p90[RTT_SCALES[0]] < p90[RTT_SCALES[1]] < p90[RTT_SCALES[2]]
    rtts = {s: latency[s].netmodel.mean_rtt for s in RTT_SCALES}
    assert rtts[RTT_SCALES[0]] < rtts[RTT_SCALES[1]] < rtts[RTT_SCALES[2]]
    timeouts = {s: latency[s].netmodel.lookup_timeouts for s in RTT_SCALES}
    assert timeouts[RTT_SCALES[0]] <= timeouts[RTT_SCALES[1]] <= timeouts[RTT_SCALES[2]]
    assert timeouts[RTT_SCALES[2]] > timeouts[RTT_SCALES[0]]


def test_netmodel_regimes(benchmark):
    payload = benchmark(build_payload)
    print()
    print(json.dumps(payload, indent=1, sort_keys=True))
    assert_regime_shapes()


def main(argv):
    out = argv[1] if len(argv) > 1 else "BENCH_netmodel.json"
    assert_regime_shapes()
    payload = build_payload()
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
