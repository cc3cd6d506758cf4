"""Tests for peer identifiers and base58 encoding."""

import pickle
import random
from functools import total_ordering

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.libp2p.crypto import ED25519, RSA_2048, KeyPair, generate_keypair
from repro.libp2p.peer_id import (
    _SHA256_MULTIHASH_PREFIX,
    PeerId,
    base58btc_decode,
    base58btc_encode,
)


class TestBase58:
    def test_round_trip(self):
        data = bytes(range(0, 40))
        assert base58btc_decode(base58btc_encode(data)) == data

    def test_leading_zeros_preserved(self):
        data = b"\x00\x00\x01\x02"
        encoded = base58btc_encode(data)
        assert encoded.startswith("11")
        assert base58btc_decode(encoded) == data

    def test_empty_bytes(self):
        assert base58btc_encode(b"") == ""
        assert base58btc_decode("") == b""

    def test_invalid_character_rejected(self):
        with pytest.raises(ValueError):
            base58btc_decode("0OIl")  # characters excluded from the alphabet


class TestPeerId:
    def test_from_keypair_is_deterministic(self):
        rng = random.Random(42)
        keypair = generate_keypair(rng)
        assert PeerId.from_keypair(keypair) == PeerId.from_keypair(keypair)

    def test_different_keys_yield_different_ids(self):
        rng = random.Random(42)
        a = PeerId.from_keypair(generate_keypair(rng))
        b = PeerId.from_keypair(generate_keypair(rng))
        assert a != b

    def test_base58_round_trip(self):
        pid = PeerId.random(random.Random(1))
        assert PeerId.from_base58(pid.to_base58()) == pid

    def test_base58_starts_with_qm(self):
        # sha2-256 multihashes encode to the familiar "Qm..." prefix
        pid = PeerId.random(random.Random(2))
        assert pid.to_base58().startswith("Qm")

    def test_digest_must_be_32_bytes(self):
        with pytest.raises(ValueError):
            PeerId(digest=b"\x00" * 16)

    def test_kad_key_matches_digest(self):
        pid = PeerId.random(random.Random(3))
        assert pid.kad_key() == int.from_bytes(pid.digest, "big")

    def test_ordering_is_consistent_with_digest(self):
        pids = [PeerId.random(random.Random(i)) for i in range(10)]
        assert sorted(pids) == sorted(pids, key=lambda p: p.digest)

    def test_hashable_and_usable_in_sets(self):
        rng = random.Random(4)
        pid = PeerId.random(rng)
        clone = PeerId(digest=pid.digest)
        assert len({pid, clone}) == 1

    def test_short_form_contains_prefix_and_suffix(self):
        pid = PeerId.random(random.Random(5))
        short = pid.short()
        b58 = pid.to_base58()
        assert short.startswith(b58[:6])
        assert short.endswith(b58[-4:])

    def test_from_base58_rejects_non_multihash(self):
        with pytest.raises(ValueError):
            PeerId.from_base58(base58btc_encode(b"\x01\x02\x03"))

    def test_random_with_same_rng_sequence_differs(self):
        rng = random.Random(6)
        assert PeerId.random(rng) != PeerId.random(rng)

    def test_slotted_immutable_and_picklable(self):
        # Sweep workers pickle datasets and connections back to the parent;
        # every peer holds one of these, so none may carry a __dict__.
        pid = PeerId.random(random.Random(7))
        rendered = pid.to_base58()
        assert not hasattr(pid, "__dict__")
        with pytest.raises(AttributeError):
            pid.digest = bytes(32)
        with pytest.raises(AttributeError):
            pid.scratch = 1
        with pytest.raises(AttributeError):
            del pid.digest
        clone = pickle.loads(pickle.dumps(pid))
        assert clone == pid and hash(clone) == hash(pid)
        assert clone.kad_key() == pid.kad_key() and clone.to_base58() == rendered


@total_ordering
class DigestPeerId:
    """The digest-backed ``PeerId`` the ``int`` subclass replaced, kept as the
    reference: hash, equality and order over the digest bytes, with the key,
    the hash and the rendering stored beside it."""

    __slots__ = ("digest", "_kad_key", "_hash", "_b58")

    def __init__(self, digest: bytes) -> None:
        if len(digest) != 32:
            raise ValueError("PeerId digest must be 32 bytes (sha2-256)")
        init = object.__setattr__
        init(self, "digest", digest)
        init(self, "_kad_key", int.from_bytes(digest, "big"))
        init(self, "_hash", hash(digest))
        init(self, "_b58", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"PeerId is immutable (cannot set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"PeerId is immutable (cannot delete {name!r})")

    def __reduce__(self):
        return DigestPeerId, (self.digest,)

    def to_base58(self) -> str:
        b58 = self._b58
        if b58 is None:
            b58 = base58btc_encode(_SHA256_MULTIHASH_PREFIX + self.digest)
            object.__setattr__(self, "_b58", b58)
        return b58

    def kad_key(self) -> int:
        return self._kad_key

    def short(self) -> str:
        b58 = self.to_base58()
        return f"{b58[:6]}…{b58[-4:]}"

    def __str__(self) -> str:
        return self.to_base58()

    def __repr__(self) -> str:
        return f"PeerId({self.short()})"

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, DigestPeerId):
            return NotImplemented
        return self.digest < other.digest

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DigestPeerId):
            return self.digest == other.digest
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash


_digests = st.binary(min_size=32, max_size=32)


class TestIntegerIdentityMatchesDigestReference:
    """The ``int`` subclass behaves like the digest-backed reference on
    everything the program reads of an identity."""

    @settings(max_examples=200, deadline=None)
    @given(digests=st.lists(_digests, min_size=1, max_size=12), data=st.data())
    def test_equality_order_and_hash(self, digests, data):
        # repeats make equal identities from distinct digest objects
        digests += data.draw(st.lists(st.sampled_from(digests), max_size=4))
        pids = [PeerId(digest=bytes(d)) for d in digests]
        refs = [DigestPeerId(bytes(d)) for d in digests]
        for a, ref_a in zip(pids, refs):
            for b, ref_b in zip(pids, refs):
                assert (a == b) == (ref_a == ref_b)
                assert (a != b) == (ref_a != ref_b)
                assert (a < b) == (ref_a < ref_b)
                if a == b:
                    assert hash(a) == hash(b)
        assert [p.digest for p in sorted(pids)] == [r.digest for r in sorted(refs)]
        assert len(set(pids)) == len(set(refs))

    @settings(max_examples=200, deadline=None)
    @given(digest=_digests)
    def test_renderings_round_trips_and_immutability(self, digest):
        pid, ref = PeerId(digest=digest), DigestPeerId(digest)
        assert str(pid) == str(ref) == pid.to_base58()
        assert repr(pid) == repr(ref) and pid.short() == ref.short()
        assert f"{pid}" == f"{ref}" and "%s" % pid == "%s" % ref
        assert pid.digest == ref.digest == digest
        parsed = PeerId.from_base58(str(pid))
        assert type(parsed) is PeerId and parsed == pid
        clone = pickle.loads(pickle.dumps(pid))
        assert type(clone) is PeerId and clone == pid and hash(clone) == hash(pid)
        key = pid.kad_key()
        assert type(key) is int and key == ref.kad_key()
        assert str(key) == str(ref.kad_key())  # a key prints as a number
        with pytest.raises(AttributeError):
            pid.digest = bytes(32)
        with pytest.raises(AttributeError):
            pid.scratch = 1
        with pytest.raises(AttributeError):
            del pid.digest
        assert pid.digest == digest


class TestKeyPair:
    def test_generate_ed25519(self):
        keypair = generate_keypair(random.Random(1), key_type=ED25519)
        assert len(keypair.public_key) == 32

    def test_generate_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(random.Random(1), key_type="dsa")

    def test_public_digest_is_stable(self):
        keypair = KeyPair(key_type=ED25519, public_key=b"a" * 32, private_key=b"b" * 32)
        assert keypair.public_digest() == keypair.public_digest()
        assert len(keypair.public_digest()) == 32


def _reference_generate_keypair(rng, key_type=RSA_2048):
    """The per-byte draw ``generate_keypair`` used before it took each half
    of the key from one ``getrandbits`` call."""
    size = {RSA_2048: 256, ED25519: 32}[key_type]
    public = bytes(rng.getrandbits(8) for _ in range(size))
    private = bytes(rng.getrandbits(8) for _ in range(size))
    return KeyPair(key_type=key_type, public_key=public, private_key=private)


class TestKeyStreamIdentity:
    """One-call key draws consume the seeded stream exactly like per-byte
    draws did; every PeerId of every golden depends on it."""

    DRAWS = 5000

    @pytest.mark.parametrize("key_type", [RSA_2048, ED25519])
    def test_generate_keypair_matches_per_byte_draws(self, key_type):
        rng, reference_rng = random.Random(2024), random.Random(2024)
        for _ in range(self.DRAWS):
            assert generate_keypair(rng, key_type) == _reference_generate_keypair(
                reference_rng, key_type
            )
        assert rng.getstate() == reference_rng.getstate()

    def test_peer_id_random_matches_per_byte_draws(self):
        rng, reference_rng = random.Random(77), random.Random(77)
        for _ in range(self.DRAWS):
            assert PeerId.random(rng) == PeerId.from_keypair(
                _reference_generate_keypair(reference_rng)
            )
        assert rng.getstate() == reference_rng.getstate()
