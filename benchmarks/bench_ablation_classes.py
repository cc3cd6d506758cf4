"""Ablation — sensitivity of the Table IV classification thresholds.

The paper fixes the class cut-offs at 24 h / 2 h / 3 connections and notes that
the resulting "core" is a lower bound (misclassification moves core nodes into
light/one-time, never the other way).  This ablation sweeps the thresholds on
the same P4 dataset and checks the monotonicity that argument relies on.
"""

from repro.analysis.tables import TextTable
from repro.core.classification import ClassificationThresholds, PeerClassLabel
from repro.core.netsize import classify_peers

from conftest import scale_note

HOUR = 3_600.0

SWEEP = [
    (
        "strict",
        ClassificationThresholds(
            heavy_duration=36 * HOUR, normal_duration=4 * HOUR, light_min_connections=5
        ),
    ),
    ("paper", ClassificationThresholds()),
    (
        "lenient",
        ClassificationThresholds(
            heavy_duration=12 * HOUR, normal_duration=1 * HOUR, light_min_connections=2
        ),
    ),
]


def run_sweep(dataset):
    return {name: classify_peers(dataset, thresholds) for name, thresholds in SWEEP}


def test_ablation_classification_thresholds(benchmark, p4_result):
    dataset = p4_result.dataset("go-ipfs")
    estimates = benchmark(run_sweep, dataset)

    print()
    print(f"P4: {scale_note(p4_result)}")
    table = TextTable(
        headers=["thresholds", "heavy", "normal", "light", "one-time", "core size"],
        title="Ablation — classification threshold sensitivity",
    )
    for name, estimate in estimates.items():
        counts = estimate.counts
        table.add_row(
            name,
            counts[PeerClassLabel.HEAVY].peers,
            counts[PeerClassLabel.NORMAL].peers,
            counts[PeerClassLabel.LIGHT].peers,
            counts[PeerClassLabel.ONE_TIME].peers,
            estimate.core_size,
        )
    print(table.render())

    strict = estimates["strict"]
    paper = estimates["paper"]
    lenient = estimates["lenient"]

    # Shape 1: every sweep point partitions the same peer population.
    classified = {e.classified_peers for e in estimates.values()}
    assert len(classified) == 1

    # Shape 2: the heavy core is monotone in the duration threshold —
    # stricter cut-offs can only shrink it, lenient ones only grow it.
    assert strict.core_size <= paper.core_size <= lenient.core_size

    # Shape 3: the paper's cut-offs sit strictly between the sweep extremes for
    # the combined stable population (heavy + normal).
    def stable(estimate):
        return (estimate.counts[PeerClassLabel.HEAVY].peers
                + estimate.counts[PeerClassLabel.NORMAL].peers)

    assert stable(strict) <= stable(paper) <= stable(lenient)

    # Shape 4: raising the light connection threshold moves peers into one-time.
    assert (strict.counts[PeerClassLabel.ONE_TIME].peers
            >= lenient.counts[PeerClassLabel.ONE_TIME].peers)
