"""Tests for the measurement record schema."""

import dataclasses
import pickle
from array import array

import pytest

from repro.core.records import (
    ConnectionLog,
    ConnectionRecord,
    MeasurementDataset,
    PeerRecord,
    SnapshotRecord,
)
from repro.libp2p.protocols import IPFS_ID, KAD_DHT


class TestConnectionRecord:
    def test_duration(self):
        record = ConnectionRecord("p", "inbound", 10.0, 70.0)
        assert record.duration == 60.0

    def test_duration_never_negative(self):
        record = ConnectionRecord("p", "inbound", 70.0, 10.0)
        assert record.duration == 0.0

    def test_slotted_and_still_copyable(self):
        # Sweep workers pickle results back to the parent: that may not
        # depend on an instance __dict__.
        record = ConnectionRecord(
            "p", "inbound", 1.0, 2.0, "/ip4/1.2.3.4/tcp/4001", "1.2.3.4", "local-trim", 7
        )
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.scratch = 1
        assert pickle.loads(pickle.dumps(record)) == record
        assert dataclasses.replace(record, closed_at=5.0).duration == 4.0
        assert [f.name for f in dataclasses.fields(ConnectionRecord)] == [
            "peer",
            "direction",
            "opened_at",
            "closed_at",
            "remote_addr",
            "remote_ip",
            "close_reason",
            "connection_id",
        ]

    @pytest.mark.parametrize(
        "record",
        [
            PeerRecord("p", 1.0, 2.0, "go-ipfs/0.11.0", frozenset({IPFS_ID}), ["/a"], "1.2.3.4"),
            SnapshotRecord(60.0, 5, 9, 4),
        ],
        ids=["PeerRecord", "SnapshotRecord"],
    )
    def test_peer_and_snapshot_records_are_slotted_too(self, record):
        # thousands of each per run (one snapshot per poll per vantage point)
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.scratch = 1
        assert pickle.loads(pickle.dumps(record)) == record
        assert dataclasses.replace(record) == record



class TestConnectionLog:
    def test_rows_round_trip_through_the_columns(self):
        rows = [
            ConnectionRecord("a", "inbound", 1.0, 2.0, "/ip4/1.2.3.4/tcp/4001", "1.2.3.4",
                             "remote-trim", 7),
            ConnectionRecord("b", "outbound", 1.0, 5.0),
        ]
        log = ConnectionLog(rows)
        assert len(log) == 2 and log
        assert not ConnectionLog()
        assert list(log) == rows
        assert log[-1] == rows[1] and log[-1].connection_id is None
        assert log.names == ["inbound", None, "remote-trim", "outbound"]
        assert log.closes("remote-trim") == 1 and log.closes("local-trim") == 0
        assert pickle.loads(pickle.dumps(log)) == log
        with pytest.raises(AttributeError):
            log.scratch = 1

    def test_by_peer(self, tiny_dataset):
        log = tiny_dataset.connections
        grouped = log.by_peer(log.durations())
        assert len(grouped["light1"]) == 4
        assert len(grouped["heavy1"]) == 1
        assert list(grouped) == ["heavy1", "normal1", "light1", "once1", "once2"]

    def test_open_rows_are_filled_in_by_close(self):
        log = ConnectionLog()
        row = log.open("a", "inbound", 3.0, None, None, 9)
        log.close(row, 4.0, "error")
        assert log[row] == ConnectionRecord("a", "inbound", 3.0, 4.0, None, None, "error", 9)

    def test_sort_keeps_equal_open_times_in_order_unless_told(self):
        log = ConnectionLog(
            ConnectionRecord(peer, "inbound", opened, opened + 1.0)
            for peer, opened in (("x", 5.0), ("y", 1.0), ("z", 5.0), ("w", 1.0))
        )
        assert log.sort()
        assert log.peer == ["y", "w", "x", "z"]
        keys = array("q", [3, 2, 1, 0])
        assert log.sort(keys)
        assert log.peer == ["w", "y", "z", "x"]
        assert list(keys) == [2, 3, 0, 1]
        assert not log.sort(keys)
        assert not log.sort()

    def test_too_many_names_rejected(self):
        log = ConnectionLog()
        for i in range(256):
            log.code(str(i))
        with pytest.raises(ValueError):
            log.code("one more")


class TestPeerRecord:
    def test_role_detection(self):
        server = PeerRecord("a", 0.0, 1.0, protocols={KAD_DHT, IPFS_ID})
        client = PeerRecord("b", 0.0, 1.0, protocols={IPFS_ID})
        unknown = PeerRecord("c", 0.0, 1.0)
        assert server.is_dht_server()
        assert not client.is_dht_server()
        assert client.role_known()
        assert not unknown.role_known()

    def test_ever_dht_server_survives_role_flip(self):
        record = PeerRecord("a", 0.0, 1.0, protocols={IPFS_ID}, ever_dht_server=True)
        assert record.is_dht_server()

class TestMeasurementDataset:
    def test_duration(self, tiny_dataset):
        assert tiny_dataset.duration == tiny_dataset.ended_at - tiny_dataset.started_at

    def test_dht_server_and_client_pids(self, tiny_dataset):
        servers = set(tiny_dataset.dht_server_pids())
        clients = set(tiny_dataset.dht_client_pids())
        assert "heavy1" in servers and "light1" in servers
        assert "normal1" in clients and "once1" in clients
        # once2 has no protocol information: neither server nor client
        assert "once2" not in servers and "once2" not in clients

    def test_changes_of_kind(self, tiny_dataset):
        assert len(tiny_dataset.changes_of_kind("agent")) == 4
        assert len(tiny_dataset.changes_of_kind("protocols")) == 3

    def test_merge_peer_unions_knowledge(self):
        dataset = MeasurementDataset(label="x", started_at=0.0, ended_at=10.0)
        dataset.merge_peer(PeerRecord("a", 5.0, 6.0, protocols={IPFS_ID}))
        dataset.merge_peer(
            PeerRecord("a", 1.0, 9.0, agent_version="go-ipfs/0.11.0", protocols={KAD_DHT})
        )
        merged = dataset.peers["a"]
        assert merged.first_seen == 1.0
        assert merged.last_seen == 9.0
        assert merged.protocols == {IPFS_ID, KAD_DHT}
        assert merged.agent_version == "go-ipfs/0.11.0"

    def test_union_of_datasets(self, tiny_dataset):
        other = MeasurementDataset(label="other", started_at=0.0, ended_at=86_400.0)
        other.peers["extra"] = PeerRecord("extra", 0.0, 1.0, protocols={KAD_DHT})
        other.connections.append(ConnectionRecord("extra", "inbound", 0.0, 50.0))
        union = MeasurementDataset.union([tiny_dataset, other], label="union")
        assert union.pid_count() == tiny_dataset.pid_count() + 1
        assert union.connection_count() == tiny_dataset.connection_count() + 1
        assert union.started_at == 0.0
        assert union.ended_at == tiny_dataset.ended_at

    def test_union_of_nothing_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            MeasurementDataset.union([], label="empty")
