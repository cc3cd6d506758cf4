"""Tests for the time-series views (Fig. 5 and Fig. 6)."""

from types import SimpleNamespace

import pytest

from repro.analysis.views import VIEWS
from repro.core.records import MeasurementDataset, PeerRecord, SnapshotRecord
from repro.core.timeseries import (
    DAY,
    connected_peers_over_time,
    connections_over_time,
    gone_pids_over_time,
    pids_over_time,
)

HOUR = 3_600.0


def fig6(dataset: MeasurementDataset) -> dict:
    """The ``fig6`` claim view of a result whose go-ipfs dataset is ``dataset``."""
    return VIEWS["fig6"](SimpleNamespace(dataset={"go-ipfs": dataset}.__getitem__))


class TestConnectionsOverTime:
    def test_limit_to_first_day(self, tiny_dataset):
        series = connections_over_time(tiny_dataset, limit=DAY)
        assert series
        assert all(t <= DAY for t, _ in series)
        full = connections_over_time(tiny_dataset, limit=None)
        assert len(full) == len(tiny_dataset.snapshots)

    def test_values_match_snapshots(self, tiny_dataset):
        series = connections_over_time(tiny_dataset, limit=None)
        assert [v for _, v in series] == [
            float(s.simultaneous_connections) for s in tiny_dataset.snapshots
        ]

    def test_connected_peers_series(self, tiny_dataset):
        series = connected_peers_over_time(tiny_dataset, limit=None)
        assert all(v == 2.0 for _, v in series)


class TestPidsOverTime:
    def test_cumulative_and_monotone(self, tiny_dataset):
        series = pids_over_time(tiny_dataset, step=HOUR)
        values = [v for _, v in series]
        assert values == sorted(values)
        assert values[-1] == tiny_dataset.pid_count()

    def test_gone_pids_monotone_and_bounded(self):
        dataset = MeasurementDataset(label="x", started_at=0.0, ended_at=10 * DAY)
        # one peer disappears on day 1, another stays until the end
        dataset.peers["gone"] = PeerRecord("gone", 0.0, 1 * DAY)
        dataset.peers["stays"] = PeerRecord("stays", 0.0, 10 * DAY)
        series = gone_pids_over_time(dataset, gone_threshold=3 * DAY, step=DAY)
        values = [v for _, v in series]
        assert values == sorted(values)
        assert values[0] == 0.0
        assert values[-1] == 1.0          # only "gone" has been away > 3 days

    def test_gone_pids_requires_positive_step(self, tiny_dataset):
        with pytest.raises(ValueError):
            gone_pids_over_time(tiny_dataset, step=0.0)
        with pytest.raises(ValueError):
            pids_over_time(tiny_dataset, step=-1.0)


class TestFig6View:
    def test_pids_per_connection_hand_checked(self, tiny_dataset):
        # 5 PIDs seen, at most 4 simultaneous connections
        assert tiny_dataset.pid_count() == 5
        assert max(s.simultaneous_connections for s in tiny_dataset.snapshots) == 4
        assert fig6(tiny_dataset)["pids_per_connection"] == pytest.approx(5 / 4)

    def test_pids_per_connection_without_connections_is_zero(self):
        dataset = MeasurementDataset(label="x", started_at=0.0, ended_at=1.0)
        dataset.peers["p"] = PeerRecord("p", 0.0, 1.0)
        dataset.snapshots = [SnapshotRecord(0.5, 0, 1, 0)]
        assert fig6(dataset)["pids_per_connection"] == 0.0


class TestScenarioTimeseries:
    def test_pid_growth_outpaces_simultaneous_connections(self, small_scenario_result):
        # the paper's core observation behind Fig. 6: many more PIDs seen over
        # time than ever connected simultaneously
        assert VIEWS["fig6"](small_scenario_result)["pids_per_connection"] > 1.0

    def test_snapshot_cadence_matches_poll_interval(self, small_scenario_result):
        dataset = small_scenario_result.dataset("go-ipfs")
        times = [s.timestamp for s in dataset.snapshots]
        deltas = {round(b - a, 3) for a, b in zip(times, times[1:])}
        assert deltas == {30.0}

    def test_p0_trimming_caps_connections(self, small_p0_result, small_scenario_result):
        # With P0's tight (scaled) watermarks the go-ipfs vantage point trims
        # its own connections, so it holds far fewer simultaneous connections
        # than the same vantage point under P2's relaxed watermarks (Fig. 5),
        # and "local-trim" appears among the close reasons.
        p0 = small_p0_result.dataset("go-ipfs")
        p2 = small_scenario_result.dataset("go-ipfs")

        def median_connections(dataset):
            values = sorted(s.simultaneous_connections for s in dataset.snapshots)
            return values[len(values) // 2]

        assert median_connections(p0) < median_connections(p2)
        assert any(c.close_reason == "local-trim" for c in p0.connections)
        assert not any(c.close_reason == "local-trim" for c in p2.connections)
