"""Tests for the provider-record store: TTL expiry, refresh, republish races.

The determinism properties matter as much as the semantics: the content
scenarios' goldens pin exact record counts, so the store must be a pure
function of its (ordered) call sequence — no set iteration, no wall clock.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kademlia.provider_store import (
    DEFAULT_PROVIDER_TTL,
    DEFAULT_REPUBLISH_INTERVAL,
    ProviderStore,
)
from repro.libp2p.peer_id import PeerId

import random


def pid(n: int) -> PeerId:
    return PeerId.random(random.Random(n))


KEY = 0xABCDEF


class TestProviderStoreBasics:
    def test_add_and_read_back(self):
        store = ProviderStore(ttl=100.0)
        record = store.add(KEY, pid(1), now=10.0)
        assert record.expires_at == 110.0
        assert store.providers(KEY, now=50.0) == [pid(1)]
        assert store.key_count() == 1
        assert len(store) == 1

    def test_unknown_key_is_empty(self):
        store = ProviderStore()
        assert store.providers(KEY, now=0.0) == []

    def test_expired_records_are_filtered(self):
        store = ProviderStore(ttl=100.0)
        store.add(KEY, pid(1), now=0.0)
        assert store.providers(KEY, now=99.9) == [pid(1)]
        assert store.providers(KEY, now=100.0) == []  # expiry is inclusive
        # the record is still *stored* until a sweep runs
        assert len(store) == 1

    def test_readd_refreshes_expiry_and_keeps_order(self):
        store = ProviderStore(ttl=100.0)
        store.add(KEY, pid(1), now=0.0)
        store.add(KEY, pid(2), now=10.0)
        store.add(KEY, pid(1), now=50.0)  # refresh, not append
        assert store.providers(KEY, now=60.0) == [pid(1), pid(2)]
        # pid(1) now lives until 150, pid(2) until 110
        assert store.providers(KEY, now=120.0) == [pid(1)]

    def test_per_record_ttl_override(self):
        store = ProviderStore(ttl=1000.0)
        store.add(KEY, pid(1), now=0.0, ttl=10.0)
        assert store.providers(KEY, now=20.0) == []

    def test_limit(self):
        store = ProviderStore(ttl=100.0)
        for i in range(5):
            store.add(KEY, pid(i), now=0.0)
        assert store.providers(KEY, now=1.0, limit=2) == [pid(0), pid(1)]

    def test_remove(self):
        store = ProviderStore(ttl=100.0)
        store.add(KEY, pid(1), now=0.0)
        assert store.remove(KEY, pid(1))
        assert not store.remove(KEY, pid(1))
        assert store.key_count() == 0

    def test_expire_sweeps_and_reports(self):
        store = ProviderStore(ttl=100.0)
        store.add(KEY, pid(1), now=0.0)
        store.add(KEY, pid(2), now=50.0)
        store.add(KEY + 1, pid(3), now=0.0)
        assert store.expire(now=120.0) == 2  # pid(1) and pid(3)
        assert len(store) == 1
        assert store.key_count() == 1
        assert store.providers(KEY, now=120.0) == [pid(2)]

    def test_invalid_ttl_rejected(self):
        with pytest.raises(ValueError, match="TTL"):
            ProviderStore(ttl=0.0)

    def test_go_ipfs_defaults(self):
        # republish at half the TTL: a live provider's records never lapse
        assert DEFAULT_REPUBLISH_INTERVAL * 2 == DEFAULT_PROVIDER_TTL


class TestExpiryRepublishProperties:
    """Property tests: the expiry/republish race behaves deterministically."""

    @given(
        ttl=st.floats(min_value=1.0, max_value=1e4),
        adds=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 9), st.floats(0.0, 1e4)),
            max_size=40,
        ),
        probe=st.floats(min_value=0.0, max_value=3e4),
    )
    @settings(max_examples=60, deadline=None)
    def test_reads_only_return_unexpired_records(self, ttl, adds, probe):
        store = ProviderStore(ttl=ttl)
        adds = sorted(adds, key=lambda a: a[2])  # time-ordered like the engine
        for key, provider, at in adds:
            store.add(key, pid(provider), now=at)
        for key in set(a[0] for a in adds):
            live = store.providers(key, now=probe)
            latest = {}
            for k, provider, at in adds:
                if k == key:
                    latest[provider] = at
            # a record is live exactly while probe < added_at + ttl
            expected = {p for p, at in latest.items() if probe < at + ttl}
            assert set(pid(p) for p in expected) == set(live)

    @given(
        ttl=st.floats(min_value=10.0, max_value=1e3),
        rounds=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_republish_at_half_ttl_keeps_the_record_alive(self, ttl, rounds):
        store = ProviderStore(ttl=ttl)
        interval = ttl / 2.0
        for i in range(rounds):
            now = i * interval
            store.add(KEY, pid(1), now=now)
            assert store.expire(now=now) == 0
            assert store.providers(KEY, now=now) == [pid(1)]
        # once republishing stops, exactly one TTL later the record lapses
        last = (rounds - 1) * interval
        assert store.providers(KEY, now=last + ttl - 1e-6) == [pid(1)]
        assert store.providers(KEY, now=last + ttl) == []

    @given(
        adds=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 6), st.floats(0.0, 1e3)),
            max_size=30,
        ),
        sweep_at=st.floats(min_value=0.0, max_value=2e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_sequence_gives_identical_stores(self, adds, sweep_at):
        adds = sorted(adds, key=lambda a: a[2])

        def build():
            store = ProviderStore(ttl=500.0)
            for key, provider, at in adds:
                store.add(key, pid(provider), now=at)
            dropped = store.expire(now=sweep_at)
            state = {
                key: store.providers(key, now=sweep_at) for key in store.keys()
            }
            return dropped, state, len(store)

        assert build() == build()


class TestIncrementalExpiryEquivalence:
    """Satellite: the min-heap sweep must match the old full-scan semantics.

    The reference below is the pre-heap implementation — walk every record,
    drop the ones with ``now >= expires_at`` — run against a mirror of the
    store's state.  Randomised add/remove/expire sequences must agree on both
    the dropped counts and the surviving records.
    """

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["add", "add-short", "remove", "expire"]),
                st.integers(0, 4),           # key
                st.integers(0, 7),           # provider
                st.floats(0.0, 60.0),        # time advance before the op
            ),
            max_size=60,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_heap_sweep_matches_full_scan(self, ops):
        store = ProviderStore(ttl=100.0)
        mirror = {}  # key -> {provider: expires_at}
        clock = 0.0
        for op, key, provider, advance in ops:
            clock += advance
            if op == "add" or op == "add-short":
                ttl = 25.0 if op == "add-short" else None
                store.add(key, pid(provider), now=clock, ttl=ttl)
                mirror.setdefault(key, {})[provider] = clock + (ttl or store.ttl)
            elif op == "remove":
                removed = store.remove(key, pid(provider))
                assert removed == (provider in mirror.get(key, {}))
                mirror.get(key, {}).pop(provider, None)
            else:
                expected = sum(
                    1
                    for per_key in mirror.values()
                    for expires_at in per_key.values()
                    if clock >= expires_at
                )
                for k in list(mirror):
                    mirror[k] = {
                        p: e for p, e in mirror[k].items() if clock < e
                    }
                    if not mirror[k]:
                        del mirror[k]
                assert store.expire(now=clock) == expected
        # final state agrees record for record
        for key in set(store.keys()) | set(mirror):
            live = {str(p) for p in store.providers(key, now=clock)}
            expected = {
                str(pid(p)) for p, e in mirror.get(key, {}).items() if clock < e
            }
            assert live == expected

    def test_refresh_is_not_double_dropped(self):
        store = ProviderStore(ttl=100.0)
        store.add(KEY, pid(1), now=0.0)
        store.add(KEY, pid(1), now=50.0)   # refresh: stale heap entry at 100
        assert store.expire(now=100.0) == 0
        assert store.providers(KEY, now=100.0) == [pid(1)]
        assert store.expire(now=150.0) == 1
        assert store.providers(KEY, now=150.0) == []
        assert store.expire(now=200.0) == 0

    def test_removed_record_leaves_only_a_stale_heap_entry(self):
        store = ProviderStore(ttl=100.0)
        store.add(KEY, pid(1), now=0.0)
        assert store.remove(KEY, pid(1))
        assert store.expire(now=500.0) == 0
        assert len(store) == 0

    def test_shortened_refresh_expires_at_the_new_time(self):
        store = ProviderStore(ttl=100.0)
        store.add(KEY, pid(1), now=0.0)            # expires at 100
        store.add(KEY, pid(1), now=10.0, ttl=20.0)  # refreshed down: expires at 30
        assert store.expire(now=30.0) == 1
        assert store.providers(KEY, now=30.0) == []
        # the stale original entry at 100 must not count as a second drop
        assert store.expire(now=100.0) == 0
