"""A minimal Bitswap engine.

The measurement nodes in the paper never request or serve content, so Bitswap
only matters in two places: the protocol announcement (go-ipfs peers that do
*not* announce Bitswap are one of the paper's anomalies) and the fact that
Bitswap broadcasts can cause remote peers to open connections to us.  The
engine below implements a wantlist/ledger just far enough for the simulated
peers of the content-routing scenarios to serve and fetch blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.libp2p.peer_id import PeerId


@dataclass
class Ledger:
    """Per-peer exchange accounting, as real Bitswap keeps."""

    peer: PeerId
    bytes_sent: int = 0
    bytes_received: int = 0
    blocks_sent: int = 0
    blocks_received: int = 0


class BitswapEngine:
    """Want-list handling and per-peer ledgers."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._wantlist: Set[str] = set()
        self._blockstore: Dict[str, bytes] = {}
        self._ledgers: Dict[PeerId, Ledger] = {}

    # -- local content ------------------------------------------------------------

    def add_block(self, cid: str, data: bytes) -> None:
        self._blockstore[cid] = data
        self._wantlist.discard(cid)

    def has_block(self, cid: str) -> bool:
        return cid in self._blockstore

    def want(self, cid: str) -> None:
        if not self.has_block(cid):
            self._wantlist.add(cid)

    # -- message handling ----------------------------------------------------------

    def ledger_for(self, peer: PeerId) -> Ledger:
        ledger = self._ledgers.get(peer)
        if ledger is None:
            ledger = Ledger(peer=peer)
            self._ledgers[peer] = ledger
        return ledger

    def handle_want(self, peer: PeerId, cid: str) -> Optional[bytes]:
        """A remote peer asks for ``cid``; serve it if we have it."""
        if not self.enabled:
            return None
        block = self._blockstore.get(cid)
        if block is not None:
            ledger = self.ledger_for(peer)
            ledger.blocks_sent += 1
            ledger.bytes_sent += len(block)
        return block

    def handle_block(self, peer: PeerId, cid: str, data: bytes) -> bool:
        """A remote peer sent us a block; returns True if it was wanted."""
        if not self.enabled:
            return False
        ledger = self.ledger_for(peer)
        ledger.blocks_received += 1
        ledger.bytes_received += len(data)
        wanted = cid in self._wantlist
        self.add_block(cid, data)
        return wanted

    def fetch_from(
        self,
        local_peer: PeerId,
        remote_peer: PeerId,
        remote: "BitswapEngine",
        cid: str,
        deliver=None,
        retry=None,
    ) -> Optional[bytes]:
        """One want/block round trip against a connected remote engine.

        This is the exchange a resolved provider serves after being dialled:
        we send WANT(cid), the remote serves the block from its store (its
        ledger records bytes/blocks sent), and our ledger records the receipt.
        Returns the block, or ``None`` when the remote does not have it (or
        either side runs with Bitswap disabled).

        ``deliver`` is an optional fault gate (``() -> bool``, from
        :mod:`repro.faults`): when it returns False the exchange is lost on
        the wire before the remote serves anything.  ``retry`` is an optional
        duck-typed executor with ``call(fn)`` that re-issues lost exchanges
        with backoff.  Both default to the fault-free single-shot behaviour.
        """
        if not self.enabled:
            return None
        self.want(cid)

        def attempt() -> Optional[bytes]:
            if deliver is not None and not deliver():
                return None
            return remote.handle_want(local_peer, cid)

        if retry is None:
            block = attempt()
        else:
            block = retry.call(attempt)
        if block is None:
            return None
        self.handle_block(remote_peer, cid, block)
        return block
