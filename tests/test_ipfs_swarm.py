"""Tests for the swarm (connection container + trim execution + notifications)."""

import random

import pytest

from repro.ipfs.swarm import Swarm
from repro.libp2p.connection import CloseReason, Direction
from repro.libp2p.connmgr import ConnManagerConfig
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId


class RecordingListener:
    def __init__(self):
        self.connected = []
        self.disconnected = []

    def on_connected(self, conn, now):
        self.connected.append((conn, now))

    def on_disconnected(self, conn, now):
        self.disconnected.append((conn, now))


def make_swarm(low=2, high=3):
    local = PeerId.random(random.Random(0))
    return Swarm(
        local,
        ConnManagerConfig(
            low_water=low, high_water=high, grace_period=0.0, silence_period=0.0
        ),
    )


def open_conn(swarm, rng, now=0.0, direction=Direction.INBOUND):
    return swarm.open_connection(PeerId.random(rng), Multiaddr.tcp("7.7.7.7"), direction, now)


class TestSwarm:
    def test_open_and_close_notifies_listeners(self, rng):
        swarm = make_swarm()
        listener = RecordingListener()
        swarm.add_listener(listener)
        conn = open_conn(swarm, rng, now=1.0)
        assert len(listener.connected) == 1
        swarm.close_connection(conn, CloseReason.REMOTE_LEFT, 5.0)
        assert len(listener.disconnected) == 1
        assert listener.disconnected[0][0].close_reason is CloseReason.REMOTE_LEFT

    def test_connection_count_and_is_connected(self, rng):
        swarm = make_swarm(low=5, high=10)
        conn = open_conn(swarm, rng)
        assert swarm.connection_count() == 1
        assert swarm.is_connected(conn.remote_peer)

    def test_close_unknown_connection_rejected(self, rng):
        swarm = make_swarm()
        conn = open_conn(swarm, rng)
        swarm.close_connection(conn, CloseReason.ERROR, 1.0)
        with pytest.raises(KeyError):
            swarm.close_connection(conn, CloseReason.ERROR, 2.0)

    def test_trim_closes_victims_with_local_trim_reason(self, rng):
        swarm = make_swarm(low=2, high=3)
        listener = RecordingListener()
        swarm.add_listener(listener)
        for _ in range(5):
            open_conn(swarm, rng, now=0.0)
        victims = swarm.trim(now=100.0)
        assert len(victims) == 3          # 5 -> low water 2
        assert swarm.connection_count() == 2
        reasons = {c.close_reason for c, _ in listener.disconnected}
        assert reasons == {CloseReason.LOCAL_TRIM}

    def test_trim_below_high_water_is_noop(self, rng):
        swarm = make_swarm(low=2, high=10)
        for _ in range(5):
            open_conn(swarm, rng)
        assert swarm.trim(now=50.0) == []
        assert swarm.connection_count() == 5

    def test_counters(self, rng):
        swarm = make_swarm(low=1, high=100)
        conns = [open_conn(swarm, rng) for _ in range(3)]
        swarm.close_connection(conns[0], CloseReason.REMOTE_LEFT, 1.0)
        assert swarm.total_opened == 3
        assert swarm.total_closed == 1
