"""Data-plane regimes — block sizes and uplink capacity vs transfer quality.

Runs the bandwidth scenario family at several strengths and asserts the
regime shapes the subsystem is designed around:

* larger blocks ⇒ monotonically larger transfer-p90: serialization time is
  ``size / bottleneck_rate``, so scaling every block in the mixed catalog
  stretches the whole transfer distribution;
* tighter uplinks ⇒ a growing queueing share of transfer latency and a
  falling flash-crowd retrieval success rate — the hot provider's FIFO
  transmit queue backs up until timeout-bound retrievers abandon their
  fetches.

Run as a script to (re)generate the ``BENCH_bandwidth.json`` artifact the CI
perf-regression job collects::

    PYTHONPATH=src python benchmarks/bench_bandwidth.py [out.json]

The payload is deterministic — no timestamps, no wall-clock fields — so two
runs at the same scale are byte-identical.
"""

import json
import sys
from functools import lru_cache

from conftest import BENCH_SEED, bench_scale, run_registered

from repro.analysis.cdf import EmpiricalCDF
from repro.analysis.transfer_report import transfer_metrics

BANDWIDTH_PEERS = 300
BANDWIDTH_DAYS = 0.15

#: multiplier on every block size in the mixed catalog
SIZE_SCALES = (1.0, 4.0, 16.0)
#: multiplier on every access class's uplink rate (smaller = tighter)
UPLINK_SCALES = (1.0, 0.25, 0.0625)


def _run(name, **overrides):
    return run_registered(name, BANDWIDTH_PEERS, BANDWIDTH_DAYS, **overrides)


@lru_cache(maxsize=None)
def size_runs():
    return {s: _run("mixed-size-catalog", size_scale=s) for s in SIZE_SCALES}


#: the uplink regime runs over 4x blocks so the starved endpoint actually
#: collapses (transfer timeouts) instead of merely queueing
UPLINK_SIZE_SCALE = 4.0


@lru_cache(maxsize=None)
def uplink_runs():
    return {
        s: _run("provider-hotspot", uplink_scale=s, size_scale=UPLINK_SIZE_SCALE)
        for s in UPLINK_SCALES
    }


def transfer_p90(result) -> float:
    """p90 of the committed transfers' total time (RTT + serialization +
    queueing)."""
    stats = result.bandwidth
    totals = [
        rtt + ser + queue
        for rtt, ser, queue in zip(
            stats.transfer_rtts,
            stats.transfer_serializations,
            stats.transfer_queueings,
        )
    ]
    return EmpiricalCDF(totals).quantile(0.9) if totals else 0.0


def build_payload():
    """The BENCH_bandwidth.json payload: per-regime strength → data-plane
    metrics."""
    peers, days = bench_scale(BANDWIDTH_PEERS, BANDWIDTH_DAYS)
    payload = {
        "schema": "repro-bench-bandwidth/1",
        "n_peers": peers,
        "duration_days": days,
        "seed": BENCH_SEED,
        "uplink_size_scale": UPLINK_SIZE_SCALE,
        "size": {},
        "uplink": {},
    }
    for scale, result in size_runs().items():
        block = transfer_metrics(result)
        payload["size"][f"{scale:g}"] = {
            "transfers": block["transfers"],
            "transfers_timed_out": block["transfers_timed_out"],
            "bytes_transferred": block["bytes_transferred"],
            "transfer_p50": block["transfer_time"]["p50"],
            "transfer_p90": block["transfer_time"]["p90"],
            "serialization_p90": block["serialization"]["p90"],
            "queueing_share": block["queueing_share"],
            "retrieval_success_rate": round(
                result.content.retrieval_success_rate, 6
            ),
        }
    for scale, result in uplink_runs().items():
        block = transfer_metrics(result)
        payload["uplink"][f"{scale:g}"] = {
            "transfers": block["transfers"],
            "transfers_timed_out": block["transfers_timed_out"],
            "timeout_rate": block["timeout_rate"],
            "queueing_share": block["queueing_share"],
            "transfer_p90": block["transfer_time"]["p90"],
            "utilization_p90": block["utilization"]["p90"],
            "retrieval_success_rate": round(
                result.content.retrieval_success_rate, 6
            ),
        }
    return payload


def assert_regime_shapes():
    """The regime-shape contract, shared by the pytest entry and script mode
    (CI runs the script once: asserts, then writes the artifact)."""
    sizes = size_runs()
    uplinks = uplink_runs()

    # Larger blocks ⇒ every transfer serializes longer: the p90 of the total
    # transfer time grows monotonically with the catalog's size scale.
    p90 = {s: transfer_p90(sizes[s]) for s in SIZE_SCALES}
    assert p90[SIZE_SCALES[0]] <= p90[SIZE_SCALES[1]] <= p90[SIZE_SCALES[2]]
    assert p90[SIZE_SCALES[0]] < p90[SIZE_SCALES[2]]
    for result in sizes.values():
        assert result.bandwidth.transfers > 0

    # Tighter uplinks ⇒ the hot provider's queue backs up: queueing takes a
    # growing share of latency between the two non-collapsed regimes.  (At
    # the collapsed endpoint the committed-transfer share is survivorship-
    # biased — the most-queued fetches time out and never commit — so the
    # collapse itself is asserted through timeouts and success instead.)
    share = {s: uplinks[s].bandwidth.queueing_share for s in UPLINK_SCALES}
    assert share[UPLINK_SCALES[0]] < share[UPLINK_SCALES[1]]
    timeouts = {s: uplinks[s].bandwidth.transfers_timed_out for s in UPLINK_SCALES}
    assert timeouts[UPLINK_SCALES[0]] <= timeouts[UPLINK_SCALES[1]] <= timeouts[UPLINK_SCALES[2]]
    assert timeouts[UPLINK_SCALES[0]] < timeouts[UPLINK_SCALES[2]]
    success = {
        s: uplinks[s].content.retrieval_success_rate for s in UPLINK_SCALES
    }
    assert success[UPLINK_SCALES[0]] >= success[UPLINK_SCALES[1]] >= success[UPLINK_SCALES[2]]
    assert success[UPLINK_SCALES[0]] > success[UPLINK_SCALES[2]]


def test_bandwidth_regimes(benchmark):
    payload = benchmark(build_payload)
    print()
    print(json.dumps(payload, indent=1, sort_keys=True))
    assert_regime_shapes()


def main(argv):
    out = argv[1] if len(argv) > 1 else "BENCH_bandwidth.json"
    assert_regime_shapes()
    payload = build_payload()
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
