"""Tests for the CI perf-regression gate (``benchmarks/check_regression.py``)."""

import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "benchmarks"))

from check_regression import (  # noqa: E402
    DEFAULT_TOLERANCE,
    TOLERANCE_ENV,
    check_regression,
    main,
    resolve_tolerance,
)

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")


def snapshot(rate, periods=None):
    """A minimal BENCH_core-shaped payload."""
    return {
        "schema": "repro-bench-core/1",
        "totals": {"wall_seconds": 10.0, "events_processed": 1000, "events_per_sec": rate},
        "periods": periods or [],
    }


def period(period_id, events=100, counts=None, n_peers=500, days=1.0, seed=7):
    return {
        "period_id": period_id,
        "n_peers": n_peers,
        "duration_days": days,
        "seed": seed,
        "wall_seconds": 1.0,
        "events_processed": events,
        "events_per_sec": events / 1.0,
        "queries_sent": 0,
        "queries_per_sec": 0.0,
        "dataset_counts": counts or {"go-ipfs": {"peers": 10, "connections": 20}},
    }


class TestThroughputGate:
    def test_equal_rate_passes(self):
        assert check_regression(snapshot(1000.0), snapshot(1000.0)) == []

    def test_small_drop_within_tolerance_passes(self):
        assert check_regression(snapshot(1000.0), snapshot(750.0), tolerance=0.30) == []

    def test_drop_beyond_tolerance_fails(self):
        problems = check_regression(snapshot(1000.0), snapshot(650.0), tolerance=0.30)
        assert len(problems) == 1
        assert "throughput regression" in problems[0]

    def test_speedup_passes(self):
        assert check_regression(snapshot(1000.0), snapshot(5000.0)) == []

    def test_tolerance_widens_the_gate(self):
        assert check_regression(snapshot(1000.0), snapshot(650.0), tolerance=0.50) == []


class TestDeterminismGate:
    def test_same_scale_same_counts_passes(self):
        base = snapshot(1000.0, [period("P1", events=100)])
        cur = snapshot(1000.0, [period("P1", events=100)])
        assert check_regression(base, cur) == []

    def test_same_scale_event_count_change_fails(self):
        base = snapshot(1000.0, [period("P1", events=100)])
        cur = snapshot(1000.0, [period("P1", events=101)])
        problems = check_regression(base, cur)
        assert any("events_processed changed" in p for p in problems)

    def test_same_scale_dataset_count_change_fails(self):
        base = snapshot(1000.0, [period("P1", counts={"go-ipfs": {"peers": 10}})])
        cur = snapshot(1000.0, [period("P1", counts={"go-ipfs": {"peers": 11}})])
        problems = check_regression(base, cur)
        assert any("dataset counts changed" in p for p in problems)

    def test_different_scale_is_not_compared(self):
        # a REPRO_BENCH_PEERS smoke run must not trip the determinism gate
        base = snapshot(1000.0, [period("P1", events=100, n_peers=1500)])
        cur = snapshot(1000.0, [period("P1", events=999, n_peers=200)])
        assert check_regression(base, cur) == []

    def test_period_missing_from_baseline_is_ignored(self):
        base = snapshot(1000.0, [])
        cur = snapshot(1000.0, [period("P1")])
        assert check_regression(base, cur) == []


class TestToleranceResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(TOLERANCE_ENV, raising=False)
        assert resolve_tolerance() == DEFAULT_TOLERANCE

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(TOLERANCE_ENV, "0.55")
        assert resolve_tolerance() == 0.55

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(TOLERANCE_ENV, "0.55")
        assert resolve_tolerance(0.1) == 0.1

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(TOLERANCE_ENV, "fast")
        with pytest.raises(SystemExit):
            resolve_tolerance()

    def test_out_of_range_rejected(self):
        with pytest.raises(SystemExit):
            resolve_tolerance(1.5)


class TestCli:
    def write(self, path, payload):
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return str(path)

    def test_pass_exit_zero(self, tmp_path, capsys):
        base = self.write(tmp_path / "base.json", snapshot(1000.0))
        cur = self.write(tmp_path / "cur.json", snapshot(900.0))
        assert main(["--baseline", base, "--current", cur]) == 0
        assert "perf gate passed" in capsys.readouterr().out

    def test_fail_exit_one(self, tmp_path, capsys):
        base = self.write(tmp_path / "base.json", snapshot(1000.0))
        cur = self.write(tmp_path / "cur.json", snapshot(100.0))
        assert main(["--baseline", base, "--current", cur]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_against_the_committed_baseline_shape(self, tmp_path):
        """The committed BENCH_core.json is a valid baseline for the gate."""
        committed = os.path.join(REPO_ROOT, "BENCH_core.json")
        with open(committed) as handle:
            baseline = json.load(handle)
        # identical snapshot → trivially green, exercised end-to-end
        cur = self.write(tmp_path / "cur.json", baseline)
        result = subprocess.run(
            [
                sys.executable,
                os.path.join(REPO_ROOT, "benchmarks", "check_regression.py"),
                "--baseline", committed, "--current", cur,
            ],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "perf gate passed" in result.stdout
