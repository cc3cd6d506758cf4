"""Adversarial catalog — attack strength vs measurement distortion.

Runs each attack family at several strengths (including the attack-free twin
of the same scenario) and asserts the regime shapes the adversary subsystem
is designed around:

* more Sybils ⇒ a (much) larger neighbourhood-density network-size
  overestimate, monotone in the flood size;
* eclipse power ⇒ lower retrieval success — a ring wider than the record
  replication factor captures every victim-key record (capture rate 1.0) and
  starves retrievals, a narrow ring only part of them;
* routing poisoning ⇒ fewer real replicas per PROVIDE, longer walks, and a
  crawler that wastes queries chasing fabricated peers, all monotone in the
  number of malicious servers;
* churn spoofing ⇒ attacker-inflated one-time/light classes, i.e. a rising
  Table IV misclassification rate.

Run as a script to (re)generate the ``BENCH_adversary.json`` artifact the CI
perf-regression job collects::

    PYTHONPATH=src python benchmarks/bench_adversary.py [out.json]

The payload is deterministic — no timestamps, no wall-clock fields — so two
runs at the same scale are byte-identical.
"""

import json
import sys
from dataclasses import replace
from functools import lru_cache
from statistics import mean

from conftest import BENCH_SEED, bench_scale, registered_config, run_registered

from repro.analysis.attack_report import attack_metrics
from repro.core.netsize import estimate_by_neighborhood_density
from repro.libp2p.peer_id import PeerId
from repro.simulation.scenario import Scenario

ADVERSARY_PEERS = 300
ADVERSARY_DAYS = 0.15

SYBIL_COUNTS = (0, 40, 160)
ECLIPSE_COUNTS = (0, 6, 24)
POISON_COUNTS = (0, 24, 60)
SPOOF_COUNTS = (0, 75)


def _without_adversary(config):
    return replace(config, population=replace(config.population, adversary=None))


def _run(name, count_key, count):
    if count == 0:
        # The attack-free twin: no override, adversary stripped.
        config = registered_config(name, ADVERSARY_PEERS, ADVERSARY_DAYS)
        return Scenario(_without_adversary(config)).run()
    return run_registered(name, ADVERSARY_PEERS, ADVERSARY_DAYS, **{count_key: count})


def density_estimate(result) -> float:
    """The neighbourhood-density net-size estimate of the primary dataset."""
    label = "go-ipfs" if "go-ipfs" in result.datasets else sorted(result.datasets)[0]
    dataset = result.datasets[label]
    target_b58 = result.identity_keys.get(label) or result.identity_keys[
        sorted(result.identity_keys)[0]
    ]
    target = PeerId.from_base58(target_b58).kad_key()
    keys = [PeerId.from_base58(pid).kad_key() for pid in sorted(dataset.peers)]
    return estimate_by_neighborhood_density(keys, target).estimate


@lru_cache(maxsize=None)
def sybil_runs():
    return {c: _run("sybil-netsize-inflation", "sybil_count", c) for c in SYBIL_COUNTS}


@lru_cache(maxsize=None)
def eclipse_runs():
    return {c: _run("eclipse-provider", "eclipse_count", c) for c in ECLIPSE_COUNTS}


@lru_cache(maxsize=None)
def poison_runs():
    return {c: _run("poisoned-routing-under-churn", "poison_count", c) for c in POISON_COUNTS}


@lru_cache(maxsize=None)
def spoof_runs():
    return {c: _run("spoofed-churn-classification", "spoof_count", c) for c in SPOOF_COUNTS}


def _replicas_per_provide(content) -> float:
    operations = content.provides + content.republishes
    return content.records_stored / operations if operations else 0.0


def build_payload():
    """The BENCH_adversary.json payload: per-family strength → distortion."""
    peers, days = bench_scale(ADVERSARY_PEERS, ADVERSARY_DAYS)
    payload = {
        "schema": "repro-bench-adversary/1",
        "n_peers": peers,
        "duration_days": days,
        "seed": BENCH_SEED,
        "sybil": {},
        "eclipse": {},
        "poison": {},
        "spoof": {},
    }
    for count, result in sybil_runs().items():
        payload["sybil"][str(count)] = {
            "density_estimate": round(density_estimate(result), 1),
            "observed_pids": result.datasets["go-ipfs"].pid_count(),
        }
    for count, result in eclipse_runs().items():
        metrics = attack_metrics(result) or {}
        eclipse = metrics.get("eclipse", {})
        payload["eclipse"][str(count)] = {
            "retrieval_success_rate": round(result.content.retrieval_success_rate, 6),
            "capture_rate": eclipse.get("capture_rate", 0.0),
            "occupancy": eclipse.get("occupancy", 0.0),
        }
    for count, result in poison_runs().items():
        content = result.content
        payload["poison"][str(count)] = {
            "replicas_per_provide": round(_replicas_per_provide(content), 3),
            "retrieve_hops_mean": round(mean(content.retrieve_hops), 3)
            if content.retrieve_hops
            else 0.0,
            "crawler_queries": sum(s.queries_sent for s in result.crawls.snapshots),
        }
    for count, result in spoof_runs().items():
        metrics = attack_metrics(result) or {}
        churn = metrics.get("churn", {})
        payload["spoof"][str(count)] = {
            "misclassification_rate": churn.get("misclassification_rate", 0.0),
            "observed_pids": result.datasets["go-ipfs"].pid_count(),
            "spoofed_pids": churn.get("spoofed_pids", 0),
        }
    return payload


def assert_regime_shapes():
    """The regime-shape contract, shared by the pytest entry and script mode
    (CI runs the script once: asserts, then writes the artifact)."""
    sybil = sybil_runs()
    eclipse = eclipse_runs()
    poison = poison_runs()
    spoof = spoof_runs()

    # More Sybils ⇒ a monotonically larger density overestimate; even the
    # small flood dwarfs the honest estimate because all k nearest observed
    # IDs are mined ones.
    none, small, large = (density_estimate(sybil[c]) for c in SYBIL_COUNTS)
    assert small > 10 * none
    assert large > 1.5 * small

    # Eclipse power ⇒ lower retrieval success.  A ring wider than the
    # replication factor (24 IDs over 2 victim keys vs replication 10)
    # captures everything; the narrow ring only part of it.
    succ = {c: eclipse[c].content.retrieval_success_rate for c in ECLIPSE_COUNTS}
    capture = {
        c: (attack_metrics(eclipse[c]) or {}).get("eclipse", {}).get("capture_rate", 0.0)
        for c in ECLIPSE_COUNTS
    }
    assert succ[24] < succ[0]
    assert succ[24] < succ[6]
    assert capture[24] == 1.0
    assert capture[6] < capture[24]

    # Poisoning ⇒ fewer real replicas per PROVIDE, longer retrieval walks,
    # and a crawler burning queries on fabricated peers — all monotone.
    replicas = {c: _replicas_per_provide(poison[c].content) for c in POISON_COUNTS}
    hops = {c: mean(poison[c].content.retrieve_hops) for c in POISON_COUNTS}
    queries = {
        c: sum(s.queries_sent for s in poison[c].crawls.snapshots) for c in POISON_COUNTS
    }
    assert replicas[0] > replicas[24] > replicas[60]
    assert hops[0] < hops[60]
    assert queries[0] < queries[24] < queries[60]

    # Churn spoofing ⇒ attacker PIDs flood the classification.
    spoofed_metrics = attack_metrics(spoof[SPOOF_COUNTS[1]])
    assert spoofed_metrics["churn"]["misclassification_rate"] > 0.3
    assert (
        spoof[SPOOF_COUNTS[1]].datasets["go-ipfs"].pid_count()
        > spoof[0].datasets["go-ipfs"].pid_count()
    )


def test_adversary_regimes(benchmark):
    payload = benchmark(build_payload)
    print()
    print(json.dumps(payload, indent=1, sort_keys=True))
    assert_regime_shapes()


def main(argv):
    out = argv[1] if len(argv) > 1 else "BENCH_adversary.json"
    assert_regime_shapes()
    payload = build_payload()
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
