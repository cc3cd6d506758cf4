"""Tests for the connection object."""

import dataclasses
import pickle
import random

import pytest

from repro.ipfs.swarm import Swarm
from repro.libp2p.connection import CloseReason, Connection, Direction
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId


def make_connection(opened_at=0.0, direction=Direction.INBOUND):
    return Connection(
        remote_peer=PeerId.random(random.Random(1)),
        direction=direction,
        remote_addr=Multiaddr.tcp("9.9.9.9"),
        opened_at=opened_at,
        connection_id=1,
    )


class TestConnection:
    def test_new_connection_is_open(self):
        conn = make_connection()
        assert conn.is_open
        assert conn.closed_at is None

    def test_close_sets_reason_and_time(self):
        conn = make_connection(opened_at=10.0)
        conn.close(70.0, CloseReason.REMOTE_TRIM)
        assert not conn.is_open
        assert conn.closed_at == 70.0
        assert conn.close_reason is CloseReason.REMOTE_TRIM
        assert conn.duration() == 60.0

    def test_double_close_rejected(self):
        conn = make_connection()
        conn.close(1.0, CloseReason.ERROR)
        with pytest.raises(RuntimeError):
            conn.close(2.0, CloseReason.ERROR)

    def test_close_before_open_rejected(self):
        conn = make_connection(opened_at=100.0)
        with pytest.raises(ValueError):
            conn.close(50.0, CloseReason.ERROR)

    def test_open_connection_duration_requires_now(self):
        conn = make_connection(opened_at=5.0)
        with pytest.raises(ValueError):
            conn.duration()
        assert conn.duration(now=35.0) == 30.0

    def test_slotted_and_still_copyable(self):
        conn = make_connection(opened_at=3.0)
        assert not hasattr(conn, "__dict__")
        with pytest.raises(AttributeError):
            conn.scratch = 1
        conn.close(9.0, CloseReason.LOCAL_TRIM)
        assert pickle.loads(pickle.dumps(conn)) == conn
        reopened = dataclasses.replace(conn, closed_at=None, close_reason=None)
        assert reopened.is_open and reopened.connection_id == conn.connection_id
        # the swarm builds connections positionally
        assert [f.name for f in dataclasses.fields(Connection)][:5] == [
            "remote_peer",
            "direction",
            "remote_addr",
            "opened_at",
            "connection_id",
        ]

    def test_connection_ids_are_unique(self):
        # Ids are handed out by the opening swarm, not by the dataclass.
        swarm = Swarm(PeerId.random(random.Random(2)))
        a, b = (
            swarm.open_connection(
                PeerId.random(random.Random(seed)),
                Multiaddr.tcp("9.9.9.9"),
                Direction.INBOUND,
                now=0.0,
            )
            for seed in (3, 4)
        )
        assert (a.connection_id, b.connection_id) == (1, 2)
