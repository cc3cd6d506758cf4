"""Tests for k-buckets and the routing table."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kademlia.keys import bucket_index, xor_distance
from repro.kademlia.routing_table import CLOSEST_MEMO_CAPACITY, KBucket, RoutingTable
from repro.libp2p.peer_id import PeerId


def make_pids(n, seed=0):
    rng = random.Random(seed)
    return [PeerId.random(rng) for _ in range(n)]


class TestKBucket:
    def test_touch_adds_new_peer(self):
        bucket = KBucket(capacity=3)
        pid = make_pids(1)[0]
        assert bucket.touch(pid)
        assert pid in bucket

    def test_touch_moves_known_peer_to_tail(self):
        bucket = KBucket(capacity=3)
        a, b = make_pids(2)
        bucket.touch(a)
        bucket.touch(b)
        bucket.touch(a)
        assert bucket.peers == [b, a]

    def test_full_bucket_rejects_new_peer(self):
        bucket = KBucket(capacity=2)
        a, b, c = make_pids(3)
        assert bucket.touch(a)
        assert bucket.touch(b)
        assert not bucket.touch(c)
        assert c not in bucket

    def test_remove(self):
        bucket = KBucket(capacity=2)
        a, b = make_pids(2)
        bucket.touch(a)
        assert bucket.remove(a)
        assert not bucket.remove(b)
        assert len(bucket) == 0


class TestRoutingTable:
    def test_never_stores_self(self):
        pids = make_pids(2)
        table = RoutingTable(pids[0])
        assert not table.add_peer(pids[0])
        assert pids[0] not in table

    def test_add_and_contains(self):
        local, other = make_pids(2)
        table = RoutingTable(local)
        assert table.add_peer(other)
        assert other in table
        assert len(table) == 1

    def test_add_peers_returns_inserted_count(self):
        pids = make_pids(30, seed=1)
        table = RoutingTable(pids[0], bucket_size=20)
        added = table.add_peers(pids[1:])
        assert added <= 29
        assert added == len(table)

    def test_remove_peer(self):
        local, other = make_pids(2, seed=2)
        table = RoutingTable(local)
        table.add_peer(other)
        assert table.remove_peer(other)
        assert other not in table
        assert not table.remove_peer(other)

    def test_closest_peers_sorted_by_xor_distance(self):
        pids = make_pids(50, seed=3)
        local = pids[0]
        table = RoutingTable(local)
        table.add_peers(pids[1:])
        target = pids[1].kad_key()
        closest = table.closest_peers(target, 10)
        distances = [xor_distance(p.kad_key(), target) for p in closest]
        assert distances == sorted(distances)
        assert len(closest) == 10

    def test_closest_peers_caps_at_table_size(self):
        pids = make_pids(5, seed=4)
        table = RoutingTable(pids[0])
        table.add_peers(pids[1:])
        assert len(table.closest_peers(0, 50)) == len(table)

    def test_neighborhood_is_closest_to_local_key(self):
        pids = make_pids(40, seed=5)
        local = pids[0]
        table = RoutingTable(local)
        table.add_peers(pids[1:])
        neighborhood = table.neighborhood(5)
        all_sorted = sorted(
            table.all_peers(), key=lambda p: xor_distance(p.kad_key(), local.kad_key())
        )
        assert neighborhood == all_sorted[:5]

    def test_bucket_capacity_enforced(self):
        # Peers falling into the same bucket beyond capacity are dropped.
        pids = make_pids(400, seed=6)
        table = RoutingTable(pids[0], bucket_size=20)
        table.add_peers(pids[1:])
        for index in sorted(table._buckets):
            bucket = table._buckets[index]
            assert len(bucket) <= 20

    def test_depth_grows_with_population(self):
        pids = make_pids(200, seed=7)
        table = RoutingTable(pids[0])
        table.add_peers(pids[1:])
        assert table.depth() >= 0
        assert len(table) > 0


def _reference_closest(table, target, count):
    """The seed implementation: full sort of every peer by XOR distance."""
    peers = table.all_peers()
    peers.sort(key=lambda p: xor_distance(p.kad_key(), target))
    return peers[:count]


class TestClosestPeersEquivalence:
    """The bucket-ordered, memoised lookup must match the full-sort reference exactly."""

    def test_randomized_tables_match_reference(self):
        # Queries repeat a small pool of (target, count) pairs between
        # mutations, so an answer memoised before an add / remove / re-touch
        # and served after it would differ from the reference.
        rng = random.Random(1234)
        for trial in range(20):
            n = rng.randrange(1, 120)
            pids = [PeerId.random(rng) for _ in range(n + 1)]
            table = RoutingTable(pids[0], bucket_size=rng.choice([4, 8, 20]))
            table.add_peers(pids[1 : 1 + n // 2])
            pool = [(rng.getrandbits(256), rng.randrange(1, 30)) for _ in range(4)]
            for _ in range(60):
                action = rng.choice(["query", "query", "add", "remove", "touch"])
                members = table.all_peers()
                if action == "add":
                    table.add_peer(rng.choice(pids[1:]))
                elif action == "remove" and members:
                    table.remove_peer(rng.choice(members))
                elif action == "touch" and members:
                    table.add_peer(rng.choice(members))
                else:
                    target, count = rng.choice(pool)
                    assert table.closest_peers(target, count) == _reference_closest(
                        table, target, count
                    )

    def test_target_equal_to_member_key(self):
        rng = random.Random(99)
        pids = [PeerId.random(rng) for _ in range(60)]
        table = RoutingTable(pids[0])
        table.add_peers(pids[1:])
        for member in pids[1:10]:
            target = member.kad_key()
            result = table.closest_peers(target, 8)
            assert result == _reference_closest(table, target, 8)
            assert result[0] == member

    def test_neighborhood_matches_reference(self):
        rng = random.Random(4321)
        for trial in range(10):
            pids = [PeerId.random(rng) for _ in range(rng.randrange(2, 150))]
            table = RoutingTable(pids[0])
            table.add_peers(pids[1:])
            for count in (1, 5, 20, len(table) + 5):
                assert table.neighborhood(count) == _reference_closest(
                    table, table.local_peer.kad_key(), count
                )

    def test_zero_and_negative_count(self):
        rng = random.Random(7)
        pids = [PeerId.random(rng) for _ in range(10)]
        table = RoutingTable(pids[0])
        table.add_peers(pids[1:])
        assert table.closest_peers(123, 0) == []
        assert table.closest_peers(123, -3) == []

    def test_count_around_table_size_and_single_entry_bucket(self):
        rng = random.Random(77)
        pids = [PeerId.random(rng) for _ in range(13)]
        table = RoutingTable(pids[0])
        table.add_peers(pids[1:])
        size = len(table)
        assert any(len(bucket) == 1 for bucket in table._buckets.values())
        for target in [rng.getrandbits(256) for _ in range(5)] + [table.local_peer.kad_key()]:
            everyone = _reference_closest(table, target, size)
            assert len(everyone) == size
            for count in (1, size - 1, size, size + 1, size * 3):
                assert table.closest_peers(target, count) == everyone[:count]


class TestClosestPeersMemo:
    def _table(self):
        pids = make_pids(60, seed=5)
        table = RoutingTable(pids[0])
        table.add_peers(pids[1:])
        return table, random.Random(5)

    def test_unqueried_table_has_no_memo(self):
        table, _ = self._table()
        assert table._closest_memo is None
        assert table.closest_peers(1, 0) == []
        assert table._closest_memo is None

    def test_mutations_drop_the_memo(self):
        table, _ = self._table()
        member = table.all_peers()[0]
        for mutate in (table.add_peer, table.remove_peer):
            table.closest_peers(123, 5)
            assert table._closest_memo
            mutate(member)
            assert table._closest_memo is None

    def test_removing_a_peer_that_is_not_there_keeps_the_memo(self):
        # Every identify from a DHT-Client asks the table to forget a peer it
        # never held; the table is unchanged, so its answers still stand.
        table, rng = self._table()
        populated = sorted(table._buckets)[-1]
        empty = next(i for i in range(255, 0, -1) if i not in table._buckets)
        strangers = [
            table.local_peer,
            _peer_in_bucket(table.local_peer, populated, 12345),
            _peer_in_bucket(table.local_peer, empty, 12345),
        ]
        answer = table.closest_peers(123, 5)
        memo = table._closest_memo
        before = table.all_peers()
        for stranger in strangers:
            assert table.remove_peer(stranger) is False
            assert table._closest_memo is memo and (123, 5) in memo
        assert table.all_peers() == before
        assert table.closest_peers(123, 5) == answer == _reference_closest(table, 123, 5)

    def test_returned_list_is_the_callers(self):
        table, rng = self._table()
        target = rng.getrandbits(256)
        first = table.closest_peers(target, 10)
        expected = list(first)
        first.reverse()
        first.pop()
        second = table.closest_peers(target, 10)
        assert second == expected
        second.clear()
        assert table.closest_peers(target, 10) == expected

    def test_memo_is_bounded(self):
        table, rng = self._table()
        for _ in range(CLOSEST_MEMO_CAPACITY * 3 + 1):
            target = rng.getrandbits(256)
            assert table.closest_peers(target, 7) == _reference_closest(table, target, 7)
            assert 1 <= len(table._closest_memo) <= CLOSEST_MEMO_CAPACITY


def _peer_in_bucket(local: PeerId, bucket: int, variant: int) -> PeerId:
    """A peer whose key differs from ``local``'s first at bit ``bucket``."""
    diff = (1 << bucket) | (variant % (1 << bucket))
    return PeerId(digest=(local.kad_key() ^ diff).to_bytes(32, "big"))


class TestBulkSeedingEquivalence:
    """``add_peers`` is the per-peer loop, bucket by bucket (the per-peer loop
    lives on here as the reference)."""

    @settings(max_examples=200, deadline=None)
    @given(
        local_seed=st.integers(min_value=0, max_value=2**32),
        bucket_size=st.sampled_from([1, 2, 3, 20]),
        # None is the local peer itself; few buckets and few variants per
        # bucket, so lists repeat peers and overfill buckets past k
        draws=st.lists(
            st.one_of(
                st.none(),
                st.tuples(st.sampled_from([3, 4, 100, 255]), st.integers(0, 7)),
            ),
            max_size=60,
        ),
        preloaded=st.integers(min_value=0, max_value=20),
    )
    def test_add_peers_matches_per_peer_loop(self, local_seed, bucket_size, draws, preloaded):
        local = PeerId.random(random.Random(local_seed))
        peers = [local if d is None else _peer_in_bucket(local, *d) for d in draws]
        bulk = RoutingTable(local, bucket_size=bucket_size)
        reference = RoutingTable(local, bucket_size=bucket_size)
        for table in (bulk, reference):
            for peer in peers[:preloaded]:
                table.add_peer(peer)
            table.closest_peers(local.kad_key(), 5)
        rest = peers[preloaded:]

        added = bulk.add_peers(rest)

        assert added == sum(reference.add_peer(peer) for peer in rest)
        assert sorted(bulk._buckets) == sorted(reference._buckets)
        for index in sorted(reference._buckets):
            assert bulk._buckets[index].peers == reference._buckets[index].peers
            assert bulk._buckets[index].capacity == bucket_size
        assert bulk._closest_memo is None


def _reference_remove_peer(table, peer):
    """``remove_peer`` before the role-flip fast path (PeerId ``__eq__``,
    ``kad_key`` and ``bucket_index`` per call; memo dropped up front)."""
    if peer == table.local_peer:
        return False
    table._closest_memo = None
    index = bucket_index(table.local_peer.kad_key(), peer.kad_key())
    bucket = table._buckets.get(index)
    if bucket is None:
        return False
    removed = bucket.remove(peer)
    if removed and not len(bucket):
        del table._buckets[index]
    return removed


class TestRemovePeerEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        local_seed=st.integers(min_value=0, max_value=2**32),
        members=st.lists(
            st.tuples(st.sampled_from([3, 4, 100, 255]), st.integers(0, 7)), max_size=30
        ),
        # None is the local peer itself; bucket 9 is never populated
        removals=st.lists(
            st.one_of(
                st.none(),
                st.tuples(st.sampled_from([3, 4, 9, 100, 255]), st.integers(0, 7)),
            ),
            max_size=30,
        ),
    )
    def test_same_results_and_same_table(self, local_seed, members, removals):
        local = PeerId.random(random.Random(local_seed))
        fast, reference = RoutingTable(local, bucket_size=3), RoutingTable(local, bucket_size=3)
        for table in (fast, reference):
            table.add_peers(_peer_in_bucket(local, *m) for m in members)
        for removal in removals:
            peer = local if removal is None else _peer_in_bucket(local, *removal)
            query = (peer.kad_key(), 4)
            before = fast.closest_peers(*query)
            removed = fast.remove_peer(peer)
            assert removed is _reference_remove_peer(reference, peer)
            # a miss leaves the memoised answer in place, and it is still right
            assert (fast._closest_memo is None) == removed
            assert removed or fast.closest_peers(*query) == before
            assert fast.closest_peers(*query) == _reference_closest(reference, *query)
        assert sorted(fast._buckets) == sorted(reference._buckets)
        for index in sorted(reference._buckets):
            assert fast._buckets[index].peers == reference._buckets[index].peers
