"""Peer identifiers (PIDs).

libp2p identifies peers by the multihash of their public key, rendered in
base58btc.  RSA-keyed go-ipfs nodes therefore show up as ``Qm...`` strings; the
paper consistently distinguishes peers by this PID and later argues that one
participant may own several PIDs (rotation, multiple profiles, hydra heads).

This module implements the multihash + base58btc encoding faithfully so that
IDs look and sort like real IPFS peer IDs.  A ``PeerId`` is the raw digest as
an integer, which is also its key for the Kademlia XOR metric (Kademlia
keyspace distance is computed over the SHA-256 of the PID bytes in
go-libp2p-kad-dht; we use the key digest directly, which preserves the
uniform-keyspace property the DHT relies on).
"""

from __future__ import annotations

import hashlib
import random
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


class PeerId(int):
    """A libp2p peer identifier whose integer value is its Kademlia key.

    The value is the SHA-256 multihash digest read big-endian, so hashing,
    equality, ordering and XOR distance are ``int``'s own, and ordering is
    digest order (the digest is fixed-width).  Nothing derived is stored:
    ``digest`` and the base58 rendering are computed when asked for, and the
    simulation renders each PID once per fabric (the vantage points'
    recorders share one table).  ``__slots__ = ()`` leaves no per-instance
    ``__dict__``, so an identity refuses attribute assignment.
    """

    __slots__ = ()

    def __new__(cls, digest: bytes) -> "PeerId":
        if len(digest) != 32:
            raise ValueError("PeerId digest must be 32 bytes (sha2-256)")
        return int.__new__(cls, int.from_bytes(digest, "big"))

    def __reduce__(self):
        return PeerId, (self.digest,)

    @property
    def digest(self) -> bytes:
        return self.to_bytes(32, "big")

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
        return base58btc_encode(_SHA256_MULTIHASH_PREFIX + self.digest)

    def kad_key(self) -> int:
        """The 256-bit Kademlia key as a plain ``int`` (prints as a number)."""
        return int(self)

    def short(self) -> str:
        """Short human-readable form used in logs and examples."""
        b58 = self.to_base58()
        return f"{b58[:6]}…{b58[-4:]}"

    def __str__(self) -> str:
        return self.to_base58()

    def __repr__(self) -> str:
        return f"PeerId({self.short()})"
