"""Tests for the passive measurement recorder."""

import random

from repro.core.measurement import MeasurementRecorder, PassiveMeasurement
from repro.ipfs.config import IpfsConfig
from repro.ipfs.node import IpfsNode
from repro.libp2p.connection import CloseReason, Direction
from repro.libp2p.identify import IdentifyRecord
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId
from repro.libp2p.protocols import IPFS_ID, KAD_DHT


def make_node(low=50, high=80):
    return IpfsNode(IpfsConfig(low_water=low, high_water=high), rng=random.Random(0))


def open_row(recorder, rng, now, connection_id=1):
    return recorder.on_connected(
        PeerId.random(rng), Direction.INBOUND, Multiaddr.tcp("5.5.5.5"), connection_id, now
    )


class TestPassiveMeasurement:
    def test_connection_events_recorded(self, rng):
        node = make_node()
        measurement = PassiveMeasurement(node, label="go-ipfs")
        remote = PeerId.random(rng)
        conn = node.handle_inbound_connection(remote, Multiaddr.tcp("8.8.4.4"), 10.0)
        node.close_connection(conn, CloseReason.REMOTE_TRIM, 70.0)
        dataset = measurement.finalize(100.0)
        assert dataset.connection_count() == 1
        record = dataset.connections[0]
        assert record.peer == str(remote)
        assert record.duration == 60.0
        assert record.close_reason == "remote-trim"
        assert record.remote_ip == "8.8.4.4"

    def test_still_open_connections_closed_at_measurement_end(self, rng):
        node = make_node()
        measurement = PassiveMeasurement(node, label="go-ipfs")
        node.handle_inbound_connection(PeerId.random(rng), Multiaddr.tcp("1.1.1.1"), 20.0)
        dataset = measurement.finalize(100.0)
        assert dataset.connection_count() == 1
        assert dataset.connections[0].closed_at == 100.0
        assert dataset.connections[0].close_reason == "still-open"

    def test_poll_snapshots_connection_and_pid_counts(self, rng):
        node = make_node()
        measurement = PassiveMeasurement(node, label="go-ipfs")
        for i in range(3):
            node.handle_inbound_connection(PeerId.random(rng), Multiaddr.tcp("1.1.1.1"), float(i))
        snapshot = measurement.poll(30.0)
        assert snapshot.simultaneous_connections == 3
        assert snapshot.known_pids == 3
        assert snapshot.connected_pids == 3
        dataset = measurement.finalize(60.0)
        assert len(dataset.snapshots) == 1

    def test_identify_metadata_lands_in_peer_records(self, rng):
        node = make_node()
        measurement = PassiveMeasurement(node, label="go-ipfs")
        remote = PeerId.random(rng)
        node.handle_inbound_connection(remote, Multiaddr.tcp("2.2.2.2"), 0.0)
        node.receive_identify(
            remote,
            IdentifyRecord.make("go-ipfs/0.11.0/abc", {IPFS_ID, KAD_DHT},
                                [Multiaddr.tcp("2.2.2.2")]),
            1.0,
        )
        dataset = measurement.finalize(50.0)
        record = dataset.peers[str(remote)]
        assert record.agent_version == "go-ipfs/0.11.0/abc"
        assert record.is_dht_server()
        assert record.observed_ip == "2.2.2.2"
        assert dataset.changes_of_kind("agent")

    def test_ever_dht_server_survives_demotion(self, rng):
        node = make_node()
        measurement = PassiveMeasurement(node, label="go-ipfs")
        remote = PeerId.random(rng)
        node.handle_inbound_connection(remote, Multiaddr.tcp("2.2.2.2"), 0.0)
        node.receive_identify(remote, IdentifyRecord.make("x", {IPFS_ID, KAD_DHT}), 1.0)
        measurement.poll(2.0)
        node.receive_identify(remote, IdentifyRecord.make("x", {IPFS_ID}), 3.0)
        dataset = measurement.finalize(10.0)
        record = dataset.peers[str(remote)]
        assert KAD_DHT not in record.protocols
        assert record.ever_dht_server
        assert record.is_dht_server()

    def test_dataset_window(self, rng):
        node = make_node()
        measurement = PassiveMeasurement(node, label="go-ipfs", measurement_role="client")
        node.handle_inbound_connection(PeerId.random(rng), Multiaddr.tcp("3.3.3.3"), 12.0)
        dataset = measurement.finalize(99.0)
        assert dataset.started_at == 12.0
        assert dataset.ended_at == 99.0
        assert dataset.measurement_role == "client"

    def test_local_trim_recorded_with_reason(self, rng):
        node = make_node(low=2, high=3)
        measurement = PassiveMeasurement(node, label="go-ipfs")
        for _ in range(6):
            node.handle_inbound_connection(PeerId.random(rng), Multiaddr.tcp("4.4.4.4"), 0.0)
        node.tick(now=200.0)
        dataset = measurement.finalize(300.0)
        reasons = {c.close_reason for c in dataset.connections}
        assert "local-trim" in reasons

    def test_finalize_moves_a_still_open_row_and_the_node_follows(self, rng):
        node = make_node(low=0, high=5)
        measurement = PassiveMeasurement(node, label="go-ipfs")
        kept, gone = PeerId.random(rng), PeerId.random(rng)
        assert node.handle_inbound_connection(kept, Multiaddr.tcp("1.1.1.1"), 5.0) == 0
        node.close_connection(
            node.handle_inbound_connection(gone, Multiaddr.tcp("2.2.2.2"), 5.0),
            CloseReason.REMOTE_TRIM,
            6.0,
        )
        # opened at the same time: the closed row is exported first
        dataset = measurement.finalize(10.0)
        assert [record.peer for record in dataset.connections] == [str(gone), str(kept)]
        assert node.connmgr._open == {1: kept}
        # a grace period after it opened, the kept row is trimmed
        assert node.tick(25.0, force=True) == [(1, kept)]
        record = measurement.finalize(30.0).connections[1]
        assert (record.peer, record.closed_at, record.close_reason) == (
            str(kept), 25.0, "local-trim"
        )


class TestMeasurementRecorder:
    def test_started_at_is_the_first_open(self, rng):
        recorder = MeasurementRecorder()
        assert recorder.started_at is None
        assert [open_row(recorder, rng, now) for now in (4.0, 9.0)] == [0, 1]
        assert recorder.started_at == 4.0
        assert PassiveMeasurement(make_node(), "go-ipfs").finalize(50.0).started_at == 50.0

    def test_finalize_reports_every_still_open_row_that_moves(self, rng):
        recorder = MeasurementRecorder()
        peers = [recorder.log.peer[open_row(recorder, rng, 5.0)] for _ in range(4)]
        recorder.on_disconnected(3, CloseReason.REMOTE_TRIM, 6.0)
        recorder.on_disconnected(1, CloseReason.REMOTE_LEFT, 7.0)
        # equal open times: closed rows in close order (3, 1), then the
        # still-open ones in open order (0, 2)
        assert recorder.finalize(10.0) == {0: 2, 2: 3}
        log = recorder.log
        assert list(log.peer) == [peers[3], peers[1], peers[0], peers[2]]
        assert [(record.closed_at, record.close_reason) for record in log] == [
            (6.0, "remote-trim"),
            (7.0, "remote-left"),
            (10.0, "still-open"),
            (10.0, "still-open"),
        ]

    def test_a_second_finalize_moves_nothing(self, rng):
        recorder = MeasurementRecorder()
        for now in (5.0, 5.0, 5.0):
            open_row(recorder, rng, now)
        recorder.on_disconnected(2, CloseReason.REMOTE_LEFT, 6.0)
        assert recorder.finalize(10.0) == {0: 1, 1: 2}
        exported = list(recorder.log)
        assert recorder.finalize(10.0) == {}
        assert list(recorder.log) == exported
        # a still-open row closed after a finalize keeps its place
        recorder.on_disconnected(1, CloseReason.LOCAL_TRIM, 12.0)
        assert recorder.finalize(15.0) == {}
        assert [(record.closed_at, record.close_reason) for record in recorder.log] == [
            (6.0, "remote-left"),
            (12.0, "local-trim"),
            (15.0, "still-open"),
        ]
