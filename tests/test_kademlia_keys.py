"""Tests for Kademlia keyspace arithmetic."""

import random

import pytest

from repro.kademlia.keys import (
    KEY_BITS,
    bucket_index,
    key_for_content,
    random_key_in_bucket,
    xor_distance,
)
from repro.libp2p.peer_id import PeerId


def random_key(rng: random.Random) -> int:
    return rng.getrandbits(KEY_BITS)


class TestXorDistance:
    def test_distance_to_self_is_zero(self):
        key = random_key(random.Random(1))
        assert xor_distance(key, key) == 0

    def test_symmetry(self):
        rng = random.Random(2)
        a, b = random_key(rng), random_key(rng)
        assert xor_distance(a, b) == xor_distance(b, a)

    def test_triangle_inequality_xor_form(self):
        # XOR metric satisfies d(a,c) <= d(a,b) ^ ... actually d(a,c) = d(a,b) XOR d(b,c)
        rng = random.Random(3)
        a, b, c = (random_key(rng) for _ in range(3))
        assert xor_distance(a, c) == xor_distance(a, b) ^ xor_distance(b, c)


class TestPrefixAndBuckets:
    def test_common_prefix_of_identical_keys(self):
        key = random_key(random.Random(4))
        # a key shares all KEY_BITS bits with itself: no bit differs
        assert xor_distance(key, key) == 0

    def test_common_prefix_of_complementary_keys(self):
        key = (1 << KEY_BITS) - 1
        # no shared prefix: the very first bit differs, the farthest bucket
        assert bucket_index(key, 0) == KEY_BITS - 1

    def test_bucket_index_relationship_with_cpl(self):
        rng = random.Random(5)
        local, remote = random_key(rng), random_key(rng)
        if local != remote:
            # the bucket is the highest differing bit: KEY_BITS - 1 - shared prefix length
            assert bucket_index(local, remote) == xor_distance(local, remote).bit_length() - 1

    def test_bucket_index_of_self_rejected(self):
        key = random_key(random.Random(6))
        with pytest.raises(ValueError):
            bucket_index(key, key)

    def test_random_key_in_bucket_lands_in_that_bucket(self):
        rng = random.Random(7)
        local = random_key(rng)
        for index in (0, 1, 10, 100, KEY_BITS - 1):
            target = random_key_in_bucket(local, index, rng)
            assert bucket_index(local, target) == index

    def test_random_key_in_bucket_rejects_bad_index(self):
        with pytest.raises(ValueError):
            random_key_in_bucket(0, KEY_BITS)
        with pytest.raises(ValueError):
            random_key_in_bucket(0, -1)


class TestKeyDerivation:
    def test_key_for_content_is_deterministic(self):
        assert key_for_content(b"hello") == key_for_content(b"hello")
        assert key_for_content(b"hello") != key_for_content(b"world")

    def test_keys_fit_in_keyspace(self):
        rng = random.Random(9)
        for _ in range(20):
            assert 0 <= PeerId.random(rng).kad_key() < (1 << KEY_BITS)
            assert 0 <= key_for_content(rng.randbytes(16)) < (1 << KEY_BITS)
