"""Tests for determinism of the paper periods and for the sweep's process pool.

The determinism test pins the exact dataset counts a fixed-seed scenario
produced with the *seed* (pre-optimisation) implementation: the hot-path
overhaul (cached keys, heap-based routing lookups, O(1) network bookkeeping)
must not change a single count.
"""

from repro.experiments.periods import period
from repro.experiments.runner import bench_workers, run_cells
from repro.scenarios import run_scenario_by_name
from repro.simulation.scenario import run_scenario
from repro.sweep import dataset_counts


def _counts(result):
    return {
        "events_processed": result.events_processed,
        "version_changes": result.version_changes,
        "role_flips": result.role_flips,
        "autonat_flips": result.autonat_flips,
        "datasets": dataset_counts(result),
    }


class TestDeterminism:
    #: dataset counts captured from the seed implementation for P1 at
    #: n_peers=300, duration_days=0.25, seed=11, run_crawler=False
    GOLDEN = {
        "events_processed": 9228,
        "version_changes": 2,
        "role_flips": 12,
        "autonat_flips": 35,
        "datasets": {
            "go-ipfs": {"peers": 211, "connections": 741, "snapshots": 720, "changes": 821},
            "hydra": {"peers": 246, "connections": 1275, "snapshots": 720, "changes": 1654},
            "hydra-H0": {"peers": 212, "connections": 635, "snapshots": 360, "changes": 827},
            "hydra-H1": {"peers": 214, "connections": 640, "snapshots": 360, "changes": 827},
        },
    }

    def test_fixed_seed_matches_seed_implementation(self):
        config = period("P1").scenario_config(
            n_peers=300, duration_days=0.25, seed=11, run_crawler=False
        )
        assert _counts(run_scenario(config)) == self.GOLDEN

    def test_fixed_seed_is_reproducible_across_runs(self):
        kwargs = dict(n_peers=200, duration_days=0.1, seed=5)
        first = run_scenario_by_name("p2", **kwargs)
        second = run_scenario_by_name("p2", **kwargs)
        assert _counts(first) == _counts(second)
        # crawl results are deterministic too
        assert [s.queries_sent for s in first.crawls.snapshots] == [
            s.queries_sent for s in second.crawls.snapshots
        ]
        assert [s.discovered_count for s in first.crawls.snapshots] == [
            s.discovered_count for s in second.crawls.snapshots
        ]


class TestParallelRunner:
    def test_bench_workers_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
        assert bench_workers() == 1
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "4")
        assert bench_workers() == 4
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "0")
        assert bench_workers() == 1
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "nonsense")
        assert bench_workers() == 1

    def test_run_cells_parallel_matches_sequential(self):
        cells = [("p1", 100, 0.05, 13), ("p3", 100, 0.05, 13)]
        sequential = run_cells(run_scenario_by_name, cells, workers=1)
        parallel = run_cells(run_scenario_by_name, cells, workers=2)
        assert len(sequential) == len(parallel) == 2
        # identical simulations, in input order: the pool changes wall time only
        for seq, par in zip(sequential, parallel):
            assert seq.events_processed == par.events_processed > 0
            assert dataset_counts(seq) == dataset_counts(par)
        assert "hydra" in sequential[0].datasets and "hydra" not in sequential[1].datasets
