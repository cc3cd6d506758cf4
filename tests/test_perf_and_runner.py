"""Tests for the perf telemetry module, the parallel runner, and determinism.

The determinism test pins the exact dataset counts a fixed-seed scenario
produced with the *seed* (pre-optimisation) implementation: the hot-path
overhaul (cached keys, heap-based routing lookups, O(1) network bookkeeping)
must not change a single count.
"""

import json

import pytest

from repro import perf
from repro.experiments.runner import (
    bench_workers,
    measure_periods,
    run_period,
    run_periods,
)


class TestDeterminism:
    #: dataset counts captured from the seed implementation for
    #: run_period("P1", n_peers=300, duration_days=0.25, seed=11, run_crawler=False)
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

    def _counts(self, result):
        return {
            "events_processed": result.events_processed,
            "version_changes": result.version_changes,
            "role_flips": result.role_flips,
            "autonat_flips": result.autonat_flips,
            "datasets": perf.dataset_counts(result),
        }

    def test_fixed_seed_matches_seed_implementation(self):
        result = run_period("P1", n_peers=300, duration_days=0.25, seed=11, run_crawler=False)
        assert self._counts(result) == self.GOLDEN

    def test_fixed_seed_is_reproducible_across_runs(self):
        kwargs = dict(n_peers=200, duration_days=0.1, seed=5)
        first = run_period("P2", **kwargs)
        second = run_period("P2", **kwargs)
        assert self._counts(first) == self._counts(second)
        # crawl results are deterministic too
        assert [s.queries_sent for s in first.crawls.snapshots] == [
            s.queries_sent for s in second.crawls.snapshots
        ]
        assert [s.discovered_count for s in first.crawls.snapshots] == [
            s.discovered_count for s in second.crawls.snapshots
        ]


class TestPerfModule:
    def test_measure_period_reports_throughput(self):
        p = perf.measure_period("P1", n_peers=120, duration_days=0.05, seed=3)
        assert p.period_id == "P1"
        assert p.n_peers == 120
        assert p.wall_seconds > 0
        assert p.events_processed > 0
        assert p.events_per_sec > 0
        assert "go-ipfs" in p.dataset_counts
        assert p.dataset_counts["go-ipfs"]["peers"] > 0

    def test_snapshot_roundtrip(self, tmp_path):
        perfs = [
            perf.measure_period("P1", n_peers=100, duration_days=0.05, seed=3),
            perf.measure_period("P3", n_peers=100, duration_days=0.05, seed=3),
        ]
        path = str(tmp_path / "BENCH_core.json")
        payload = perf.write_snapshot(path, perfs, note="unit test")
        assert payload["schema"] == "repro-bench-core/1"
        assert payload["totals"]["events_processed"] == sum(p.events_processed for p in perfs)
        loaded = perf.load_snapshot(path)
        assert loaded == json.loads(json.dumps(payload))
        assert [p["period_id"] for p in loaded["periods"]] == ["P1", "P3"]

    def test_load_snapshot_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not_a_snapshot.json"
        path.write_text(json.dumps({"periods": []}))
        with pytest.raises(perf.SnapshotSchemaError) as excinfo:
            perf.load_snapshot(str(path))
        message = str(excinfo.value)
        assert str(path) in message
        assert "missing 'schema'" in message
        assert perf.SNAPSHOT_SCHEMA in message

    def test_load_snapshot_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "repro-bench-obs/1"}))
        with pytest.raises(perf.SnapshotSchemaError) as excinfo:
            perf.load_snapshot(str(path))
        message = str(excinfo.value)
        assert str(path) in message
        assert "repro-bench-obs/1" in message
        assert perf.SNAPSHOT_SCHEMA in message

    def test_load_snapshot_custom_and_relaxed_schema(self, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text(json.dumps({"schema": "repro-bench-obs/1"}))
        loaded = perf.load_snapshot(str(path), expected_schema="repro-bench-obs/1")
        assert loaded["schema"] == "repro-bench-obs/1"
        # None skips the exact match but still demands the field itself.
        assert perf.load_snapshot(str(path), expected_schema=None) == loaded
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(perf.SnapshotSchemaError):
            perf.load_snapshot(str(path), expected_schema=None)


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

    def test_run_periods_sequential(self):
        results = run_periods(["P1", "P3"], n_peers=100, duration_days=0.05, seed=3, workers=1)
        assert list(results) == ["P1", "P3"]
        assert all(r.events_processed > 0 for r in results.values())

    def test_parallel_measure_matches_sequential(self):
        kwargs = dict(n_peers=120, duration_days=0.05, seed=9)
        sequential = measure_periods(["P1", "P3"], workers=1, **kwargs)
        parallel = measure_periods(["P1", "P3"], workers=2, **kwargs)
        for seq, par in zip(sequential, parallel):
            assert seq.period_id == par.period_id
            # identical simulations: only wall time may differ between processes
            assert seq.events_processed == par.events_processed
            assert seq.queries_sent == par.queries_sent
            assert seq.dataset_counts == par.dataset_counts

    def test_parallel_run_periods_matches_sequential(self):
        kwargs = dict(n_peers=100, duration_days=0.05, seed=13)
        sequential = run_periods(["P1", "P3"], workers=1, **kwargs)
        parallel = run_periods(["P1", "P3"], workers=2, **kwargs)
        for pid in ("P1", "P3"):
            assert sequential[pid].events_processed == parallel[pid].events_processed
            assert perf.dataset_counts(sequential[pid]) == perf.dataset_counts(parallel[pid])
