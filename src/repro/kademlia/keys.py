"""Kademlia keyspace arithmetic.

Keys are 256-bit integers; a :class:`~repro.libp2p.peer_id.PeerId` is its own
key (the SHA-256 digest behind it, read as an integer).  Distance is
XOR; the bucket index of a remote key relative to a local key is the position
of the highest differing bit (equivalently ``KEY_BITS - 1 - cpl`` where ``cpl``
is the common prefix length).
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional

#: Width of the Kademlia keyspace (SHA-256).
KEY_BITS = 256

_KEY_MASK = (1 << KEY_BITS) - 1


def key_for_content(data: bytes) -> int:
    """Map arbitrary content (e.g. a provider record key) into the keyspace."""
    return int.from_bytes(hashlib.sha256(data).digest(), "big")


def xor_distance(a: int, b: int) -> int:
    """XOR distance between two keys."""
    return (a ^ b) & _KEY_MASK


def bucket_index(local: int, remote: int) -> int:
    """Bucket index of ``remote`` in ``local``'s routing table (0..KEY_BITS-1).

    Bucket ``i`` holds peers whose distance has its highest set bit at position
    ``i``; larger indices mean farther peers.  Raises for ``local == remote``
    because a node never stores itself.
    """
    dist = xor_distance(local, remote)
    if dist == 0:
        raise ValueError("a key has no bucket relative to itself")
    return dist.bit_length() - 1


def random_key_in_bucket(local: int, index: int, rng: Optional[random.Random] = None) -> int:
    """Generate a key that falls into bucket ``index`` of ``local``.

    Crawlers use this to craft FIND_NODE targets that enumerate every bucket of
    a remote peer.
    """
    if not 0 <= index < KEY_BITS:
        raise ValueError(f"bucket index out of range: {index}")
    rng = rng or random
    # Flip bit ``index`` and randomise all lower bits.
    prefix = local >> (index + 1) << (index + 1)
    top_bit = ((local >> index) & 1) ^ 1
    lower = rng.getrandbits(index) if index > 0 else 0
    return prefix | (top_bit << index) | lower
