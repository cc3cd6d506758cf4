"""Peer identifiers (PIDs).

libp2p identifies peers by the multihash of their public key, rendered in
base58btc.  RSA-keyed go-ipfs nodes therefore show up as ``Qm...`` strings; the
paper consistently distinguishes peers by this PID and later argues that one
participant may own several PIDs (rotation, multiple profiles, hydra heads).

This module implements the multihash + base58btc encoding faithfully so that
IDs look and sort like real IPFS peer IDs, and exposes the raw digest for the
Kademlia XOR metric (Kademlia keyspace distance is computed over the SHA-256 of
the PID bytes in go-libp2p-kad-dht; we use the key digest directly, which
preserves the uniform-keyspace property the DHT relies on).
"""

from __future__ import annotations

import hashlib
import random
from functools import total_ordering
from typing import Optional

from repro.libp2p.crypto import RSA_2048, KeyPair, draw_key_material

_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_SHA256_MULTIHASH_PREFIX = bytes([0x12, 0x20])


def base58btc_encode(data: bytes) -> str:
    """Encode ``data`` as base58btc (the encoding used for Qm... peer IDs)."""
    num = int.from_bytes(data, "big")
    digits = []
    while num > 0:
        num, rem = divmod(num, 58)
        digits.append(_B58_ALPHABET[rem])
    # Preserve leading zero bytes as '1' characters.
    pad = 0
    for byte in data:
        if byte == 0:
            pad += 1
        else:
            break
    return "1" * pad + "".join(reversed(digits))


def base58btc_decode(text: str) -> bytes:
    """Decode a base58btc string back into bytes."""
    num = 0
    for char in text:
        idx = _B58_ALPHABET.find(char)
        if idx < 0:
            raise ValueError(f"invalid base58 character: {char!r}")
        num = num * 58 + idx
    raw = num.to_bytes((num.bit_length() + 7) // 8, "big") if num else b""
    pad = 0
    for char in text:
        if char == "1":
            pad += 1
        else:
            break
    return b"\x00" * pad + raw


@total_ordering
class PeerId:
    """A libp2p peer identifier backed by a SHA-256 multihash digest.

    Distance checks, swarm bookkeeping, and dataset finalisation all hammer
    ``kad_key()`` / ``hash()`` / ``str()``; the derived values are therefore
    cached at construction (the digest is immutable, so they never change).
    Every peer and every rotation holds one, so the class is slotted (no
    per-instance ``__dict__``) and refuses attribute assignment.
    """

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
        return PeerId, (self.digest,)

    @classmethod
    def from_keypair(cls, keypair: KeyPair) -> "PeerId":
        return cls(digest=keypair.public_digest())

    @classmethod
    def from_public_key(cls, public_key: bytes) -> "PeerId":
        return cls(digest=hashlib.sha256(public_key).digest())

    @classmethod
    def from_base58(cls, text: str) -> "PeerId":
        raw = base58btc_decode(text)
        if raw[:2] != _SHA256_MULTIHASH_PREFIX or len(raw) != 34:
            raise ValueError("not a sha2-256 multihash peer ID")
        return cls(digest=raw[2:])

    @classmethod
    def random(cls, rng: Optional[random.Random] = None) -> "PeerId":
        """Generate a fresh identity (fresh key pair) and return its PeerId.

        Draws the whole key pair from ``rng`` — the private half is part of
        the stream — but only hashes the public half.
        """
        public_key, _ = draw_key_material(rng, RSA_2048)
        return cls.from_public_key(public_key)

    def to_base58(self) -> str:
        b58 = self._b58
        if b58 is None:
            b58 = base58btc_encode(_SHA256_MULTIHASH_PREFIX + self.digest)
            object.__setattr__(self, "_b58", b58)
        return b58

    def kad_key(self) -> int:
        """Return the 256-bit integer used for Kademlia XOR distance."""
        return self._kad_key

    def short(self) -> str:
        """Short human-readable form used in logs and examples."""
        b58 = self.to_base58()
        return f"{b58[:6]}…{b58[-4:]}"

    def __str__(self) -> str:
        return self.to_base58()

    def __repr__(self) -> str:
        return f"PeerId({self.short()})"

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, PeerId):
            return NotImplemented
        return self.digest < other.digest

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PeerId):
            return self.digest == other.digest
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash
