"""Tests for the connection manager (the trimming mechanism).

The paper's central churn claim rests on this component: connections are
trimmed from HighWater down to LowWater, tagged/graced connections survive,
and higher thresholds mean longer-lived connections.
"""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_connection_log import (
    Connection,
    ReferenceConnectionManager,
    connection_traces,
    connmgr_configs,
    play_trace,
)

from repro.libp2p.connection import Direction
from repro.libp2p.connmgr import (
    GRACE_PERIOD,
    SILENCE_PERIOD,
    ConnectionManager,
    ConnManagerConfig,
)
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.peer_id import PeerId


def make_manager(low=3, high=5):
    return ConnectionManager(ConnManagerConfig(low_water=low, high_water=high), array("d"))


def add_conn(manager, now, rng, peer=None):
    """Open a row at ``now`` to ``peer`` (default: a new one); returns the row."""
    opened = manager._opened_at
    opened.append(now)
    row = len(opened) - 1
    manager.add_connection(row, PeerId.random(rng) if peer is None else peer)
    return row


def close_all(manager, rows):
    for row in rows:
        manager.remove_connection(row)


class TestConfig:
    def test_low_water_must_not_exceed_high_water(self):
        with pytest.raises(ValueError):
            ConnManagerConfig(low_water=10, high_water=5)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            ConnManagerConfig(low_water=-1, high_water=5)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"low_water": -1, "high_water": 5}, "low_water -1 < 0"),
            ({"low_water": 0, "high_water": -2}, "high_water -2 < 0"),
            ({"low_water": 900, "high_water": 600}, "low_water 900 > high_water 600"),
        ],
    )
    def test_errors_name_the_field_and_its_value(self, fields, message):
        with pytest.raises(ValueError) as raised:
            ConnManagerConfig(**fields)
        assert str(raised.value) == message

    def test_defaults_match_goipfs(self):
        config = ConnManagerConfig.defaults()
        assert config.low_water == 600
        assert config.high_water == 900
        assert GRACE_PERIOD == 20.0


class TestBookkeeping:
    def test_add_and_remove_connection(self, rng):
        manager = make_manager()
        row = add_conn(manager, 0.0, rng)
        peer = manager._open[row]
        assert manager.connection_count() == 1
        assert manager.is_connected(peer)
        assert manager.remove_connection(row) == peer
        assert manager.connection_count() == 0
        assert not manager.is_connected(peer)

    def test_duplicate_add_rejected(self, rng):
        manager = make_manager()
        row = add_conn(manager, 0.0, rng)
        with pytest.raises(ValueError):
            manager.add_connection(row, manager._open[row])

    def test_remove_of_a_row_not_open_rejected(self, rng):
        manager = make_manager()
        row = add_conn(manager, 0.0, rng)
        manager.remove_connection(row)
        with pytest.raises(KeyError):
            manager.remove_connection(row)

    def test_connected_peers_lists_unique_peers(self, rng):
        manager = make_manager(high=10)
        for _ in range(4):
            add_conn(manager, 0.0, rng)
        assert manager.connected_peer_count() == 4

    def test_a_peer_stays_connected_until_its_last_row_closes(self, rng):
        manager = make_manager(high=10)
        first = add_conn(manager, 0.0, rng)
        peer = manager._open[first]
        second = add_conn(manager, 1.0, rng, peer)
        assert (manager.connection_count(), manager.connected_peer_count()) == (2, 1)
        manager.remove_connection(first)
        assert manager.is_connected(peer)
        manager.remove_connection(second)
        assert not manager.is_connected(peer)

    def test_renumber_moves_open_rows(self, rng):
        manager = make_manager(high=10)
        rows = [add_conn(manager, 0.0, rng) for _ in range(3)]
        peers = [manager._open[row] for row in rows]
        manager.renumber({0: 2, 2: 0})
        assert manager._open == {2: peers[0], 1: peers[1], 0: peers[2]}


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
        close_all(manager, victims)
        assert manager.connection_count() == 3

    def test_grace_period_protects_young_connections(self, rng):
        manager = make_manager(low=1, high=2)
        old = add_conn(manager, 0.0, rng)
        at_the_edge = add_conn(manager, 100.0 - GRACE_PERIOD, rng)
        for _ in range(4):
            add_conn(manager, 100.0 - GRACE_PERIOD + 0.25, rng)
        victims = manager.trim(now=100.0)
        # only the connections at least a grace period old are trimmed
        assert victims == [at_the_edge, old]

    def test_higher_tag_value_survives(self, rng):
        manager = make_manager(low=1, high=2)
        valued = add_conn(manager, 0.0, rng)
        manager.tag_peer(manager._open[valued], "kad", 10)
        low_value = [add_conn(manager, 0.0, rng) for _ in range(3)]
        victims = manager.trim(now=50.0)
        assert valued not in victims
        assert len(victims) == 3
        assert set(victims) == set(low_value)

    def test_untag_restores_trim_eligibility(self, rng):
        manager = make_manager(low=0, high=0)
        peer = manager._open[add_conn(manager, 0.0, rng)]
        manager.tag_peer(peer, "kad", 10)
        manager.untag_peer(peer, "kad")
        assert manager._tags[peer] == {}

    def test_silence_period_rate_limits_trims(self, rng):
        manager = make_manager(low=1, high=2)
        for _ in range(5):
            add_conn(manager, 0.0, rng)
        first = manager.trim(now=30.0)
        assert first
        close_all(manager, first)
        for _ in range(5):
            add_conn(manager, 0.0, rng)
        # still inside the silence window
        assert manager.trim(now=30.0 + SILENCE_PERIOD - 0.25) == []
        # allowed again once it has passed
        assert manager.trim(now=30.0 + SILENCE_PERIOD)

    def test_force_trim_ignores_thresholds(self, rng):
        manager = make_manager(low=1, high=10)
        for _ in range(4):
            add_conn(manager, 0.0, rng)
        victims = manager.trim(now=GRACE_PERIOD, force=True)
        assert len(victims) == 3
        close_all(manager, victims)
        assert manager.connection_count() == 1

    def test_youngest_untagged_trimmed_first(self, rng):
        manager = make_manager(low=2, high=2)
        old = add_conn(manager, 0.0, rng)
        mid = add_conn(manager, 10.0, rng)
        young = add_conn(manager, 20.0, rng)
        victims = manager.trim(now=100.0)
        assert victims == [young]
        close_all(manager, victims)
        assert sorted(manager._open) == [old, mid]


def _reference_select_victims(manager, now):
    """``select_victims`` as it was before the trim fast path: an empty tag
    map defaulted per connection, its tag values summed, and a stable sort
    through a ``key=`` lambda (over a :class:`ReferenceConnectionManager`)."""
    excess = manager.connection_count() - manager.config.low_water
    if excess <= 0:
        return []
    candidates = []
    for conn in manager._connections.values():
        tags = manager._tags.get(conn.remote_peer, {})
        if now - conn.opened_at < GRACE_PERIOD:
            continue
        candidates.append((sum(tags.values()), conn.opened_at, conn))
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
    """The row table picks the reference's victims, in its order."""

    @settings(max_examples=300, deadline=None)
    @given(
        specs=_connection_specs,
        setups=_peer_setups,
        low_water=st.integers(0, 30),
        # 60 s is exactly a grace period after the 40 s opens
        now=st.sampled_from([40.0, 60.0, 500.0]),
    )
    def test_same_victims_in_the_same_order(self, specs, setups, low_water, now):
        manager = make_manager(low=low_water, high=low_water + 5)
        reference = ReferenceConnectionManager(manager.config)
        for row, (peer_index, opened_at) in enumerate(specs):
            peer = _PEER_POOL[peer_index]
            reference.add_connection(
                Connection(peer, Direction.INBOUND, Multiaddr.tcp("8.8.8.8"), opened_at, row)
            )
            add_conn(manager, opened_at, None, peer)
        for peer_index, action, value in setups:
            peer = _PEER_POOL[peer_index]
            for connmgr in (manager, reference):
                if action == "tag":
                    connmgr.tag_peer(peer, "kad", value)
                elif action == "tag2":
                    connmgr.tag_peer(peer, "bitswap", value)
                elif action == "untag":
                    connmgr.untag_peer(peer, "kad")
                else:
                    # a connected peer without any tag bookkeeping scores zero
                    connmgr._tags.pop(peer, None)

        expected = reference.select_victims(now)
        assert expected == _reference_select_victims(reference, now)
        assert manager.select_victims(now) == [conn.connection_id for conn in expected]

    @settings(max_examples=200, deadline=None)
    @given(
        steps=connection_traces(
            ["open", "open", "dial", "close", "trim", "trim", "tag", "untag", "finalize"], 60
        ),
        config=connmgr_configs,
    )
    def test_traces_close_the_same_victims(self, steps, config):
        # open, close, (forced) trim, tag, untag and mid-trace finalize
        # against the reference swarm: same victims in the same order, same
        # counts after every step (asserted by the player)
        play_trace(steps, config)

    def test_equal_score_and_age_keeps_candidate_order(self, rng):
        # Nothing but the tie-break decides here: it must be open order.
        manager = make_manager(low=2, high=4)
        rows = [add_conn(manager, 5.0, rng) for _ in range(6)]
        assert manager.select_victims(100.0) == rows[:4]


class TestTagBookkeepingCost:
    def test_only_tag_peer_builds_a_tag_map(self, rng):
        manager = make_manager(low=1, high=2)
        peer = manager._open[add_conn(manager, 1.0, rng)]
        assert peer not in manager._tags
        manager.tag_peer(peer, "kad", 5)
        built = manager._tags[peer]
        for now in (2.0, 3.0, 4.0):
            add_conn(manager, now, rng, peer)
            manager.tag_peer(peer, "kad", 5)
            manager.untag_peer(peer, "bitswap")
            assert manager._tags[peer] is built
            assert built == {"kad": 5}
        manager.select_victims(100.0)
        manager.trim(100.0)
        assert list(manager._tags) == [peer]

        stranger = PeerId.random(rng)
        manager.untag_peer(stranger, "kad")
        assert stranger not in manager._tags
