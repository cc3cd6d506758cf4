"""Simulated libp2p key pairs.

Real go-ipfs nodes generate a 2048 bit RSA (or ed25519) key; the PeerId is a
multihash of the serialized public key.  The measurement study never uses the
keys cryptographically — only the resulting identifier matters — so the
simulation generates random "public keys" from a seeded RNG and hashes them the
same way libp2p does.  This keeps identifier derivation deterministic per seed
while preserving the property that a fresh key yields a fresh PeerId.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional, Tuple

RSA_2048 = "rsa-2048"
ED25519 = "ed25519"

_KEY_SIZES = {RSA_2048: 256, ED25519: 32}


@dataclass(frozen=True)
class KeyPair:
    """A simulated key pair.

    Only the public part is ever used (to derive the PeerId); the private part
    is kept so a node can be restarted with a persisted identity, mirroring the
    go-ipfs repository behaviour the paper describes (the authors deliberately
    did *not* persist keys between runs).
    """

    key_type: str
    public_key: bytes
    private_key: bytes

    def public_digest(self) -> bytes:
        """Return the SHA-256 digest of the public key (PeerId preimage)."""
        return hashlib.sha256(self.public_key).digest()


def draw_key_material(rng: Optional[random.Random], key_type: str) -> Tuple[bytes, bytes]:
    """Draw the (public, private) bytes of one simulated key from ``rng``.

    Each key byte is one ``getrandbits(8)``: the top byte of one 32-bit
    Mersenne word.  ``getrandbits(32 * n)`` is ``n`` such words, least
    significant first, so one call for both halves and a stride-4 slice over
    its little-endian bytes yields the same bytes from the same stream
    position (pinned against the per-byte loop in ``tests/test_libp2p_peer_id.py``).
    """
    size = _KEY_SIZES.get(key_type)
    if size is None:
        raise ValueError(f"unsupported key type: {key_type!r}")
    raw = (rng or random).getrandbits(64 * size).to_bytes(8 * size, "little")[3::4]
    return raw[:size], raw[size:]


def generate_keypair(
    rng: Optional[random.Random] = None, key_type: str = RSA_2048
) -> KeyPair:
    """Generate a fresh simulated key pair.

    ``rng`` makes generation deterministic for a seeded simulation; omitting it
    falls back to the module-level RNG which is fine for examples.
    """
    public, private = draw_key_material(rng, key_type)
    return KeyPair(key_type=key_type, public_key=public, private_key=private)
