"""Fig. 5 — simultaneous peer connections over the first 24 h of each period.

Regenerates the per-period connection time series for every vantage point and
checks the mechanism the figure shows: the tight-watermark periods (P0, P1) are
capped by the node's own trimming, P2 plateaus *below* its LowWater threshold,
and the DHT-Client vantage point (P3) holds an order of magnitude fewer
connections.
"""

from repro.analysis.plots import ascii_series, downsample
from repro.core.timeseries import connections_over_time
from repro.experiments.paper_values import PAPER

from conftest import scale_note


def build_series(results):
    series = {}
    for period_id, result in results.items():
        for label, dataset in result.datasets.items():
            if label == "hydra":
                continue
            series[f"{period_id}/{label}"] = connections_over_time(dataset, limit=86_400.0)
    return series


def test_fig5_simultaneous_connections(benchmark, p0_result, p1_result, p2_result, p3_result):
    results = {"P0": p0_result, "P1": p1_result, "P2": p2_result, "P3": p3_result}
    series = benchmark(build_series, results)

    print()
    for period_id, result in results.items():
        print(f"{period_id}: {scale_note(result)}")
    print("Fig. 5 — simultaneous connections over the first 24 h (sparklines):")
    print(ascii_series({k: downsample(v, 80) for k, v in series.items()}))
    print(
        "paper: P2 plateaus at ~15k–16k (< LowWater 18k); "
        f"max simultaneous connections ≈ {PAPER.max_simultaneous_connections:,}"
    )

    def peak(key):
        return max((v for _, v in series[key]), default=0.0)

    def median_level(key):
        values = sorted(v for _, v in series[key])
        return values[len(values) // 2] if values else 0.0

    # Shape 1: P0's own trimming keeps its connection count well below P2's.
    assert median_level("P0/go-ipfs") < median_level("P2/go-ipfs")

    # Shape 2: P2 never reaches its LowWater threshold (the paper's observation
    # that ~15k-16k simultaneous connections sit below LowWater 18k).
    p2_low_water = results["P2"].config.go_ipfs.low_water
    assert peak("P2/go-ipfs") < p2_low_water

    # Shape 3: the DHT-Client vantage point holds far fewer connections than the
    # server vantage point of the same period configuration (P3 vs P2).
    assert peak("P3/go-ipfs") < 0.75 * peak("P2/go-ipfs")

    # Shape 4: local trimming is visible in P0's close reasons but absent in P2's.
    p0_reasons = {c.close_reason for c in results["P0"].dataset("go-ipfs").connections}
    p2_reasons = {c.close_reason for c in results["P2"].dataset("go-ipfs").connections}
    assert "local-trim" in p0_reasons
    assert "local-trim" not in p2_reasons
