"""Tests for the connection manager (the trimming mechanism).

The paper's central churn claim rests on this component: connections are
trimmed from HighWater down to LowWater, tagged/graced connections survive,
and higher thresholds mean longer-lived connections.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.libp2p import connmgr as connmgr_module
from repro.libp2p.connection import Connection, Direction
from repro.libp2p.connmgr import ConnManagerConfig, ConnectionManager, TagInfo
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
        with pytest.raises(ValueError, match="silence_period must be non-negative"):
            ConnManagerConfig(silence_period=-0.5)
        assert ConnManagerConfig(silence_period=0.0).silence_period == 0.0

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
        assert manager.connected_peer_count() == 4


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
        assert manager._tags[conn.remote_peer].tags == {}

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


def _reference_select_victims(manager, now):
    """``select_victims`` as it was before the trim fast path: a ``TagInfo``
    default built per connection, its tag values summed, and a stable sort
    through a ``key=`` lambda."""
    excess = manager.connection_count() - manager.config.low_water
    if excess <= 0:
        return []
    candidates = []
    for conn in manager._connections.values():
        info = manager._tags.get(conn.remote_peer, TagInfo())
        if now - conn.opened_at < manager.config.grace_period:
            continue
        candidates.append((sum(info.tags.values()), conn.opened_at, conn))
    # Lowest score first; among equals, youngest first (largest opened_at).
    candidates.sort(key=lambda item: (item[0], -item[1]))
    return [conn for _, _, conn in candidates[:excess]]


_PEER_POOL = [PeerId.random(random.Random(seed)) for seed in range(6)]

#: few peers, few open times and few tag values, so connection sets are full
#: of ties: several connections per peer, equal scores, equal ``opened_at``
_connection_specs = st.lists(
    st.tuples(
        st.integers(0, len(_PEER_POOL) - 1),
        st.sampled_from([0.0, 10.0, 10.0, 25.0, 39.5, 40.0, 55.0]),
    ),
    max_size=24,
)
_peer_setups = st.lists(
    st.tuples(
        st.integers(0, len(_PEER_POOL) - 1),
        st.sampled_from(["tag", "tag2", "untag", "forget"]),
        st.sampled_from([0, 5, 5, 10]),
    ),
    max_size=12,
)


class TestSelectVictimsEquivalence:
    """The trim fast path picks the reference's victims, in its order."""

    @settings(max_examples=300, deadline=None)
    @given(
        specs=_connection_specs,
        setups=_peer_setups,
        low_water=st.integers(0, 30),
        grace=st.sampled_from([0.0, 20.0, 100.0]),
        now=st.sampled_from([40.0, 60.0, 500.0]),
    )
    def test_same_victims_in_the_same_order(self, specs, setups, low_water, grace, now):
        manager = make_manager(low=low_water, high=low_water + 5, grace=grace)
        for cid, (peer_index, opened_at) in enumerate(specs, start=1):
            conn = Connection(
                _PEER_POOL[peer_index], Direction.INBOUND, Multiaddr.tcp("8.8.8.8"), opened_at, cid
            )
            manager.add_connection(conn, opened_at)
        for peer_index, action, value in setups:
            peer = _PEER_POOL[peer_index]
            if action == "tag":
                manager.tag_peer(peer, "kad", value)
            elif action == "tag2":
                manager.tag_peer(peer, "bitswap", value)
            elif action == "untag":
                manager.untag_peer(peer, "kad")
            else:
                # a connected peer without any tag bookkeeping scores zero
                manager._tags.pop(peer, None)

        expected = _reference_select_victims(manager, now)
        victims = manager.select_victims(now)

        assert [c.connection_id for c in victims] == [c.connection_id for c in expected]
        assert all(a is b for a, b in zip(victims, expected))

    def test_equal_score_and_age_keeps_candidate_order(self, rng):
        # Nothing but the tie-break decides here: it must be dict order, and
        # it must never fall through to comparing Connection objects.
        manager = make_manager(low=2, high=4)
        conns = [add_conn(manager, 5.0, rng) for _ in range(6)]
        assert manager.select_victims(100.0) == conns[:4]
        assert manager.select_victims(100.0) == _reference_select_victims(manager, 100.0)


class TestTagBookkeepingCost:
    def test_tag_info_is_built_on_a_miss_only(self, rng, monkeypatch):
        built = []

        def counting_tag_info(*args, **kwargs):
            info = TagInfo(*args, **kwargs)
            built.append(info)
            return info

        monkeypatch.setattr(connmgr_module, "TagInfo", counting_tag_info)
        manager = make_manager(low=1, high=2)
        first = add_conn(manager, 1.0, rng)
        assert len(built) == 1
        for now in (2.0, 3.0, 4.0):
            again = Connection(
                first.remote_peer, Direction.INBOUND, first.remote_addr, now, next(_connection_ids)
            )
            manager.add_connection(again, now)
            manager.tag_peer(first.remote_peer, "kad", 5)
            manager.untag_peer(first.remote_peer, "bitswap")
            assert manager._tags[first.remote_peer] is built[0]
            assert built[0].tags == {"kad": 5}
        manager.select_victims(100.0)
        manager.trim(100.0)
        assert len(built) == 1
        assert built[0].first_seen == 1.0

        stranger = PeerId.random(rng)
        manager.untag_peer(stranger, "kad")
        assert stranger not in manager._tags
