"""Tests for the measurement record schema."""

import dataclasses
import json
import pickle

import pytest

from repro.core.records import (
    ConnectionRecord,
    MeasurementDataset,
    MetaChangeRecord,
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

    def test_dict_round_trip(self):
        record = ConnectionRecord(
            "p", "outbound", 1.0, 2.0, remote_ip="1.2.3.4",
            close_reason="remote-trim", connection_id=7,
        )
        assert ConnectionRecord.from_dict(record.as_dict()) == record

    def test_slotted_and_still_copyable(self):
        # Sweep workers pickle datasets back to the parent and the JSON export
        # goes through as_dict; neither may depend on an instance __dict__.
        record = ConnectionRecord(
            "p", "inbound", 1.0, 2.0, "/ip4/1.2.3.4/tcp/4001", "1.2.3.4", "local-trim", 7
        )
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.scratch = 1
        assert pickle.loads(pickle.dumps(record)) == record
        assert dataclasses.replace(record, closed_at=5.0).duration == 4.0
        assert ConnectionRecord.from_dict(json.loads(json.dumps(record.as_dict()))) == record
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

    def test_dict_round_trip(self):
        record = PeerRecord("a", 0.0, 5.0, agent_version="go-ipfs/0.11.0",
                            protocols={KAD_DHT}, addrs=["/ip4/1.2.3.4/tcp/4001"],
                            observed_ip="1.2.3.4", ever_dht_server=True)
        restored = PeerRecord.from_dict(record.as_dict())
        assert restored.peer == record.peer
        assert restored.protocols == record.protocols
        assert restored.observed_ip == record.observed_ip


class TestMeasurementDataset:
    def test_json_round_trip(self, tiny_dataset):
        text = json.dumps(tiny_dataset.as_dict())
        restored = MeasurementDataset.from_dict(json.loads(text))
        assert restored.pid_count() == tiny_dataset.pid_count()
        assert restored.connection_count() == tiny_dataset.connection_count()
        assert len(restored.changes) == len(tiny_dataset.changes)
        assert len(restored.snapshots) == len(tiny_dataset.snapshots)

    def test_duration(self, tiny_dataset):
        assert tiny_dataset.duration == tiny_dataset.ended_at - tiny_dataset.started_at

    def test_dht_server_and_client_pids(self, tiny_dataset):
        servers = set(tiny_dataset.dht_server_pids())
        clients = set(tiny_dataset.dht_client_pids())
        assert "heavy1" in servers and "light1" in servers
        assert "normal1" in clients and "once1" in clients
        # once2 has no protocol information: neither server nor client
        assert "once2" not in servers and "once2" not in clients

    def test_connections_by_peer(self, tiny_dataset):
        grouped = tiny_dataset.connections_by_peer()
        assert len(grouped["light1"]) == 4
        assert len(grouped["heavy1"]) == 1

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

    def test_snapshot_round_trip(self):
        snapshot = SnapshotRecord(10.0, 5, 20, 4)
        assert SnapshotRecord.from_dict(snapshot.as_dict()) == snapshot

    def test_metachange_round_trip_with_frozenset(self):
        change = MetaChangeRecord(1.0, "p", "protocols", frozenset({"a"}), frozenset({"b"}))
        restored = MetaChangeRecord.from_dict(
            json.loads(json.dumps(change.as_dict()))
        )
        assert restored.kind == "protocols"
        assert restored.old_value == ["a"]
