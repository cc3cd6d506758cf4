"""Tests for the connection manager (the trimming mechanism).

The paper's central churn claim rests on this component: connections are
trimmed from HighWater down to LowWater, protected/graced connections survive,
and higher thresholds mean longer-lived connections.
"""

import itertools

import pytest

from repro.libp2p.connection import Connection, Direction
from repro.libp2p.connmgr import ConnManagerConfig, ConnectionManager
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId


def make_manager(low=3, high=5, grace=0.0, silence=0.0):
    return ConnectionManager(
        ConnManagerConfig(
            low_water=low, high_water=high, grace_period=grace, silence_period=silence
        )
    )


_connection_ids = itertools.count(1)


def add_conn(manager, now, rng):
    conn = Connection(
        remote_peer=PeerId.random(rng),
        direction=Direction.INBOUND,
        remote_addr=Multiaddr.tcp("8.8.8.8"),
        opened_at=now,
        connection_id=next(_connection_ids),
    )
    manager.add_connection(conn, now)
    return conn


class TestConfig:
    def test_low_water_must_not_exceed_high_water(self):
        with pytest.raises(ValueError):
            ConnManagerConfig(low_water=10, high_water=5)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            ConnManagerConfig(low_water=-1, high_water=5)
        with pytest.raises(ValueError):
            ConnManagerConfig(grace_period=-1.0)

    def test_defaults_match_goipfs(self):
        config = ConnManagerConfig.defaults()
        assert config.low_water == 600
        assert config.high_water == 900


class TestBookkeeping:
    def test_add_and_remove_connection(self, rng):
        manager = make_manager()
        conn = add_conn(manager, 0.0, rng)
        assert manager.connection_count() == 1
        assert manager.is_connected(conn.remote_peer)
        manager.remove_connection(conn)
        assert manager.connection_count() == 0
        assert not manager.is_connected(conn.remote_peer)

    def test_duplicate_add_rejected(self, rng):
        manager = make_manager()
        conn = add_conn(manager, 0.0, rng)
        with pytest.raises(ValueError):
            manager.add_connection(conn, 1.0)

    def test_connected_peers_lists_unique_peers(self, rng):
        manager = make_manager(high=10)
        for _ in range(4):
            add_conn(manager, 0.0, rng)
        assert len(manager.connected_peers()) == 4


class TestTrimming:
    def test_no_trim_below_high_water(self, rng):
        manager = make_manager(low=3, high=5)
        for _ in range(5):
            add_conn(manager, 0.0, rng)
        assert manager.trim(now=100.0) == []

    def test_trim_down_to_low_water(self, rng):
        manager = make_manager(low=3, high=5)
        for _ in range(6):
            add_conn(manager, 0.0, rng)
        victims = manager.trim(now=100.0)
        assert len(victims) == 3
        assert manager.connection_count() == 3

    def test_grace_period_protects_young_connections(self, rng):
        manager = make_manager(low=1, high=2, grace=60.0)
        old = add_conn(manager, 0.0, rng)
        for _ in range(5):
            add_conn(manager, 95.0, rng)
        victims = manager.trim(now=100.0)
        # only the old connection is outside the grace period
        assert victims == [old]

    def test_protected_peers_never_trimmed(self, rng):
        manager = make_manager(low=0, high=1)
        protected = add_conn(manager, 0.0, rng)
        manager.protect_peer(protected.remote_peer, "bootstrap")
        others = [add_conn(manager, 0.0, rng) for _ in range(4)]
        victims = manager.trim(now=100.0)
        victim_ids = {c.connection_id for c in victims}
        assert protected.connection_id not in victim_ids
        assert victim_ids <= {c.connection_id for c in others}

    def test_higher_tag_value_survives(self, rng):
        manager = make_manager(low=1, high=2)
        valued = add_conn(manager, 0.0, rng)
        manager.tag_peer(valued.remote_peer, "kad", 10)
        low_value = [add_conn(manager, 0.0, rng) for _ in range(3)]
        victims = manager.trim(now=50.0)
        victim_ids = {c.connection_id for c in victims}
        assert valued.connection_id not in victim_ids
        assert len(victims) == 3
        assert victim_ids == {c.connection_id for c in low_value}

    def test_untag_restores_trim_eligibility(self, rng):
        manager = make_manager(low=0, high=0)
        conn = add_conn(manager, 0.0, rng)
        manager.tag_peer(conn.remote_peer, "kad", 10)
        manager.untag_peer(conn.remote_peer, "kad")
        assert manager.peer_score(conn.remote_peer) == 0

    def test_silence_period_rate_limits_trims(self, rng):
        manager = make_manager(low=1, high=2, silence=30.0)
        for _ in range(5):
            add_conn(manager, 0.0, rng)
        first = manager.trim(now=10.0)
        assert first
        for _ in range(5):
            add_conn(manager, 11.0, rng)
        assert manager.trim(now=12.0) == []        # still inside the silence window
        assert manager.trim(now=50.0)              # allowed again afterwards

    def test_force_trim_ignores_thresholds(self, rng):
        manager = make_manager(low=1, high=10)
        for _ in range(4):
            add_conn(manager, 0.0, rng)
        victims = manager.trim(now=5.0, force=True)
        assert len(victims) == 3
        assert manager.connection_count() == 1

    def test_trim_counters_updated(self, rng):
        manager = make_manager(low=1, high=2)
        for _ in range(5):
            add_conn(manager, 0.0, rng)
        manager.trim(now=10.0)
        assert manager.trim_count == 1
        assert manager.trimmed_connections == 4

    def test_youngest_untagged_trimmed_first(self, rng):
        manager = make_manager(low=2, high=2)
        old = add_conn(manager, 0.0, rng)
        mid = add_conn(manager, 10.0, rng)
        young = add_conn(manager, 20.0, rng)
        victims = manager.trim(now=100.0)
        assert victims == [young]
        assert manager.is_connected(old.remote_peer)
        assert manager.is_connected(mid.remote_peer)
