"""Fault-injection regimes — loss/partition/crash vs retry resilience.

Runs the fault scenario family at several strengths and asserts the regime
shapes the subsystem is designed around:

* a higher per-link loss rate ⇒ monotonically lower retrieval success when
  walks take every ``None`` at face value (no retries) — and capped-backoff
  retries claw most of that loss back, recovering more RPCs the lossier the
  links get;
* a healed partition ⇒ minority peers re-contact the fabric within the
  configured ``recovery_spread`` bound (time-to-recover is bounded, not
  open-ended);
* a crash storm ⇒ dirty state: crashed providers leave stale provider
  records behind for retrievers to trip over, and recovered providers
  republish once they restart.

Run as a script to (re)generate the ``BENCH_faults.json`` artifact the CI
perf-regression job collects::

    PYTHONPATH=src python benchmarks/bench_faults.py [out.json]

The payload is deterministic — no timestamps, no wall-clock fields — so two
runs at the same scale are byte-identical.
"""

import json
import sys
from functools import lru_cache

from conftest import BENCH_SEED, bench_scale, run_registered

from repro.analysis.resilience_report import resilience_metrics
from repro.scenarios.catalog import PARTITION_RECOVERY_FRACTION
from repro.simulation.churn_models import DAY

FAULTS_PEERS = 300
FAULTS_DAYS = 0.15

#: per-link loss rates swept with retries off and on
LOSS_RATES = (0.0, 0.2, 0.45)


def _run(name, **overrides):
    return run_registered(name, FAULTS_PEERS, FAULTS_DAYS, **overrides)


@lru_cache(maxsize=None)
def loss_runs():
    return {
        (rate, retry): _run("lossy-links", loss_rate=rate, retry=retry)
        for rate in LOSS_RATES
        for retry in (False, True)
    }


@lru_cache(maxsize=None)
def partition_run():
    return _run("partition-heal")


@lru_cache(maxsize=None)
def crash_run():
    return _run("crash-storm")


def success_rate(result) -> float:
    content = result.content
    return content.retrieval_successes / content.retrievals if content.retrievals else 0.0


def build_payload():
    """The BENCH_faults.json payload: per-regime strength → resilience."""
    peers, days = bench_scale(FAULTS_PEERS, FAULTS_DAYS)
    payload = {
        "schema": "repro-bench-faults/1",
        "n_peers": peers,
        "duration_days": days,
        "seed": BENCH_SEED,
        "loss": {},
    }
    for rate in LOSS_RATES:
        entry = {}
        for retry, key in ((False, "no_retry"), (True, "retry")):
            result = loss_runs()[(rate, retry)]
            stats = result.faults
            entry[key] = {
                "retrievals": result.content.retrievals,
                "successes": result.content.retrieval_successes,
                "success_rate": round(success_rate(result), 6),
                "rpc_loss_rate": round(stats.rpc_loss_rate, 6),
                "retry_amplification": round(stats.retry_amplification, 6),
                "retry_recoveries": stats.retry_recoveries,
            }
        payload["loss"][f"{rate:g}"] = entry
    payload["partition"] = resilience_metrics(partition_run())["partition"]
    crash_block = resilience_metrics(crash_run())
    payload["crash"] = {
        "crashes": crash_block["crash"]["crashes"],
        "restarts": crash_block["crash"]["restarts"],
        "recovery_republishes": crash_block["crash"]["recovery_republishes"],
        "stale_rate": crash_block["stale"]["stale_rate"],
        "success_rate": round(success_rate(crash_run()), 6),
    }
    return payload


def assert_regime_shapes():
    """The regime-shape contract, shared by the pytest entry and script mode
    (CI runs the script once: asserts, then writes the artifact)."""
    runs = loss_runs()

    # More loss ⇒ monotonically lower retrieval success without retries.
    no_retry = {rate: success_rate(runs[(rate, False)]) for rate in LOSS_RATES}
    assert no_retry[LOSS_RATES[0]] > no_retry[LOSS_RATES[1]] > no_retry[LOSS_RATES[2]]

    # Retries claw back most of the loss-induced gap at heavy loss: the
    # retried run must recover at least half of what no-retry lost relative
    # to the fault-free baseline.
    baseline = no_retry[LOSS_RATES[0]]
    heavy = LOSS_RATES[-1]
    retried = success_rate(runs[(heavy, True)])
    gap = baseline - no_retry[heavy]
    assert gap > 0
    assert retried - no_retry[heavy] >= 0.5 * gap

    # Retry recoveries grow with the loss rate (nothing to recover at zero
    # loss; more lost RPCs saved the lossier the links).
    recoveries = {rate: runs[(rate, True)].faults.retry_recoveries for rate in LOSS_RATES}
    assert recoveries[LOSS_RATES[0]] == 0
    assert recoveries[LOSS_RATES[1]] < recoveries[LOSS_RATES[2]]
    amplification = {
        rate: runs[(rate, True)].faults.retry_amplification for rate in LOSS_RATES
    }
    assert amplification[LOSS_RATES[0]] < amplification[LOSS_RATES[2]]

    # A healed partition recovers within the configured reconnect spread.
    stats = partition_run().faults
    _, days = bench_scale(FAULTS_PEERS, FAULTS_DAYS)
    spread = max(days * DAY * PARTITION_RECOVERY_FRACTION, 60.0)
    assert stats.heal_time is not None
    assert stats.recovered_peers > 0
    assert stats.recovery_delays
    assert all(0.0 <= delay <= spread for delay in stats.recovery_delays)

    # A crash storm leaves dirty state behind — and recovered providers
    # republish their items.
    crash = crash_run().faults
    assert crash.crashes > 0
    assert 0 < crash.restarts <= crash.crashes
    assert crash.recovery_republishes > 0
    assert crash.stale_provider_hits > 0


def test_fault_regimes(benchmark):
    payload = benchmark(build_payload)
    print()
    print(json.dumps(payload, indent=1, sort_keys=True))
    assert_regime_shapes()


def main(argv):
    out = argv[1] if len(argv) > 1 else "BENCH_faults.json"
    assert_regime_shapes()
    payload = build_payload()
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
