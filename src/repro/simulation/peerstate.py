"""Struct-of-arrays peer keys for the fabric's keyspace questions.

Walking one python object per peer and comparing 256-bit integers is the slow
way to ask "which peers are closest to this target".  This module keeps the
two per-peer facts that question needs as flat numpy arrays, indexed by
``peer_index``:

* **routing keys** — each peer's 256-bit Kademlia key as four big-endian
  ``uint64`` limbs, so "closest peers to a target" is a vectorized XOR plus a
  ``lexsort`` instead of a python ``sorted`` with big-int comparisons.  The
  limb ordering is *exact*: comparing ``(limb0, limb1, limb2, limb3)``
  lexicographically is identical to comparing the 256-bit integers
  (``tests/test_peerstate.py`` keeps the integer sort as the reference).
* **server flags** — which peers announced the DHT-Server protocol at build
  time, the candidate set of the neighbourhood computation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


def key_limbs(key: int) -> tuple:
    """Split a 256-bit key into four big-endian uint64 limbs."""
    mask = (1 << 64) - 1
    return (
        (key >> 192) & mask,
        (key >> 128) & mask,
        (key >> 64) & mask,
        key & mask,
    )


class PeerStateArrays:
    """Flat per-peer state, indexed by position in the fabric's peer list."""

    def __init__(self, n: int) -> None:
        self.n = n
        #: (n, 4) big-endian uint64 limbs of each peer's current Kademlia key
        self.kad_limbs = np.zeros((n, 4), dtype=np.uint64)
        #: whether the peer announced /ipfs/kad/1.0.0 at build time
        self.is_server = np.zeros(n, dtype=bool)

    @classmethod
    def from_network(cls, network) -> "PeerStateArrays":
        """Snapshot the fabric's peer keys and server flags."""
        peers = network.peers
        state = cls(len(peers))
        for i, peer in enumerate(peers):
            state.set_key(i, peer.current_pid.kad_key())
            state.is_server[i] = peer.profile.is_dht_server
        return state

    # -- keyspace ---------------------------------------------------------------

    def set_key(self, index: int, key: int) -> None:
        """Register the Kademlia key of the peer at ``index``.

        The arrays are a snapshot taken at ``start()``: nothing re-registers
        a key when a peer later rotates its PID.
        """
        self.kad_limbs[index] = key_limbs(key)

    def closest_to(
        self, target: int, k: int, candidates: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Indices of the ``k`` peers closest to ``target`` by XOR distance.

        Exact: the limb-wise lexsort orders candidates identically to sorting
        by the 256-bit XOR distance integers (keys are unique, so the order is
        total and no tie-break is needed).  ``candidates`` restricts the
        search to a subset of peer indices (e.g. DHT-Servers only).
        """
        t = np.array(key_limbs(target), dtype=np.uint64)
        if candidates is None:
            limbs = self.kad_limbs
            index_map = None
        else:
            index_map = np.asarray(candidates, dtype=np.intp)
            limbs = self.kad_limbs[index_map]
        x = limbs ^ t  # broadcast XOR per limb
        # lexsort's last key is primary: most-significant limb first.
        order = np.lexsort((x[:, 3], x[:, 2], x[:, 1], x[:, 0]))[:k]
        if index_map is not None:
            order = index_map[order]
        return order.tolist()

    def server_indices(self) -> List[int]:
        return np.flatnonzero(self.is_server).tolist()
