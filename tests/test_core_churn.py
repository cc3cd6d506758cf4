"""Tests for the connection churn statistics (Table II)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import median
from repro.core.churn import (
    ConnectionStats,
    PeriodChurnReport,
    _direction_stats,
    connection_statistics,
    trim_share,
)
from repro.core.records import ConnectionLog, ConnectionRecord, MeasurementDataset

HOUR = 3_600.0


class TestConnectionStatistics:
    def test_all_and_peer_statistics_hand_checked(self, tiny_dataset):
        report = connection_statistics(tiny_dataset)
        assert report.all_stats.count == 8
        assert report.peer_stats.count == 5

        durations = [c.duration for c in tiny_dataset.connections]
        assert report.all_stats.average == pytest.approx(sum(durations) / len(durations))

        # per-peer averages: heavy 30 h, normal 3 h, light 600 s, once1 300 s, once2 60 s
        expected_peer_averages = [30 * HOUR, 3 * HOUR, 600.0, 300.0, 60.0]
        assert report.peer_stats.average == pytest.approx(
            sum(expected_peer_averages) / len(expected_peer_averages)
        )
        assert report.peer_stats.median_value == pytest.approx(600.0)

    def test_direction_split(self, tiny_dataset):
        report = connection_statistics(tiny_dataset)
        assert report.inbound.count == 7
        assert report.outbound.count == 1

    def test_close_reason_histogram(self, tiny_dataset):
        report = connection_statistics(tiny_dataset)
        assert report.close_reasons["remote-trim"] == 7
        assert report.close_reasons["still-open"] == 1

    def test_trim_share(self, tiny_dataset):
        report = connection_statistics(tiny_dataset)
        assert trim_share(report) == pytest.approx(7 / 8)

    def test_empty_dataset(self):
        dataset = MeasurementDataset(label="empty", started_at=0.0, ended_at=1.0)
        report = connection_statistics(dataset)
        assert report.all_stats.count == 0
        assert report.peer_stats.count == 0
        assert report.all_stats.average == 0.0
        assert trim_share(report) == 0.0

    def test_peer_average_weights_every_peer_once(self):
        # One peer with many short connections must not dominate the peer stats.
        dataset = MeasurementDataset(label="x", started_at=0.0, ended_at=1000.0)
        for i in range(100):
            dataset.connections.append(
                ConnectionRecord("busy", "inbound", float(i), float(i) + 1.0)
            )
        dataset.connections.append(ConnectionRecord("calm", "inbound", 0.0, 999.0))
        report = connection_statistics(dataset)
        assert report.all_stats.count == 101
        assert report.peer_stats.count == 2
        assert report.peer_stats.average == pytest.approx((1.0 + 999.0) / 2.0)

    def test_rows_shape(self, tiny_dataset):
        rows = connection_statistics(tiny_dataset).rows()
        assert [r[0] for r in rows] == ["all", "peer"]


def _reference_connection_statistics(dataset):
    """``connection_statistics`` as it was before the Table II fast path: the
    ``duration`` property once per record for the "All" row, then
    the records grouped by peer and the property again for the "Peer" row."""
    connections = dataset.connections
    durations = []
    inbound_durations = []
    outbound_durations = []
    close_reasons = {}
    for conn in connections:
        duration = conn.duration
        durations.append(duration)
        if conn.direction == "inbound":
            inbound_durations.append(duration)
        elif conn.direction == "outbound":
            outbound_durations.append(duration)
        reason = conn.close_reason or "unknown"
        close_reasons[reason] = close_reasons.get(reason, 0) + 1
    if durations:
        all_stats = ConnectionStats(
            kind="all",
            count=len(durations),
            average=sum(durations) / len(durations),
            median_value=median(durations),
        )
    else:
        all_stats = ConnectionStats(kind="all", count=0, average=0.0, median_value=0.0)

    per_peer = {}
    for conn in connections:
        per_peer.setdefault(conn.peer, []).append(conn)
    peer_averages = [
        sum(c.duration for c in conns) / len(conns) for conns in per_peer.values() if conns
    ]
    if peer_averages:
        peer_stats = ConnectionStats(
            kind="peer",
            count=len(peer_averages),
            average=sum(peer_averages) / len(peer_averages),
            median_value=median(peer_averages),
        )
    else:
        peer_stats = ConnectionStats(kind="peer", count=0, average=0.0, median_value=0.0)

    return PeriodChurnReport(
        label=dataset.label,
        all_stats=all_stats,
        peer_stats=peer_stats,
        inbound=_direction_stats(inbound_durations, "inbound"),
        outbound=_direction_stats(outbound_durations, "outbound"),
        close_reasons=close_reasons,
    )


#: awkward floats on purpose: sums of these round differently in a different
#: order, so a regrouped or re-ordered reduction shows up under ``==``
_times = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 1e-9, 1e9, 86_400.0 / 7]),
    st.floats(min_value=0.0, max_value=2e5, allow_nan=False),
)
_records = st.lists(
    st.builds(
        ConnectionRecord,
        peer=st.sampled_from(["heavy", "normal", "light", "once", "Qm1", "Qm2", "Qm3"]),
        direction=st.sampled_from(["inbound", "inbound", "outbound", "relayed"]),
        opened_at=_times,
        closed_at=_times,  # independent of opened_at: closes before it opened, too
        close_reason=st.sampled_from([None, "", "local-trim", "remote-trim", "still-open"]),
    ),
    max_size=40,
)


class TestConnectionStatisticsEquivalence:
    """One pass over precomputed durations reports the two-pass reference's
    numbers bit for bit (``==`` on every float, no ``approx``)."""

    @settings(max_examples=300, deadline=None)
    @given(records=_records)
    def test_every_float_identical(self, records):
        dataset = MeasurementDataset(label="ds", started_at=0.0, ended_at=2e5)
        dataset.connections = ConnectionLog(records)
        report = connection_statistics(dataset)
        expected = _reference_connection_statistics(dataset)
        assert report == expected
        assert list(report.close_reasons.items()) == list(expected.close_reasons.items())

    def test_tiny_dataset_and_empty(self, tiny_dataset):
        assert connection_statistics(tiny_dataset) == _reference_connection_statistics(
            tiny_dataset
        )
        empty = MeasurementDataset(label="empty", started_at=0.0, ended_at=1.0)
        assert connection_statistics(empty) == _reference_connection_statistics(empty)

    def test_duration_property_is_never_called(self, tiny_dataset, monkeypatch):
        expected = _reference_connection_statistics(tiny_dataset)

        def forbidden(self):
            raise AssertionError("connection_statistics read ConnectionRecord.duration")

        monkeypatch.setattr(ConnectionRecord, "duration", property(forbidden))
        assert connection_statistics(tiny_dataset) == expected


class TestScenarioChurnShape:
    """Shape checks on a real (small) simulated period, mirroring the paper."""

    def test_all_average_below_peer_average(self, small_scenario_result):
        report = connection_statistics(small_scenario_result.dataset("go-ipfs"))
        # crawlers/one-timers pull the per-connection average down; per-peer
        # averaging restores the weight of stable peers (paper Section IV.A)
        assert report.all_stats.count > 0
        assert report.all_stats.average < report.peer_stats.average

    def test_median_well_below_average(self, small_scenario_result):
        report = connection_statistics(small_scenario_result.dataset("go-ipfs"))
        assert report.all_stats.median_value < report.all_stats.average

    def test_inbound_dominates_outbound(self, small_scenario_result):
        report = connection_statistics(small_scenario_result.dataset("go-ipfs"))
        assert report.inbound.count > report.outbound.count

    def test_inbound_connections_last_longer(self, small_scenario_result):
        report = connection_statistics(small_scenario_result.dataset("go-ipfs"))
        assert report.inbound.average > report.outbound.average
