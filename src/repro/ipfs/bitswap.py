"""A minimal Bitswap engine.

The measurement nodes in the paper never request or serve content, so Bitswap
only matters in two places: the protocol announcement (go-ipfs peers that do
*not* announce Bitswap are one of the paper's anomalies) and the fact that
Bitswap broadcasts can cause remote peers to open connections to us.  The
engine below is a block store with one want/block round trip, just far enough
for the simulated peers of the content-routing scenarios to serve and fetch
blocks.
"""

from __future__ import annotations

from typing import Dict, Optional


class BitswapEngine:
    """A peer's block store and its want/block exchange."""

    def __init__(self) -> None:
        self._blockstore: Dict[str, bytes] = {}

    def add_block(self, cid: str, data: bytes) -> None:
        self._blockstore[cid] = data

    def has_block(self, cid: str) -> bool:
        return cid in self._blockstore

    def handle_want(self, cid: str) -> Optional[bytes]:
        """A remote peer asks for ``cid``; serve it if we have it."""
        return self._blockstore.get(cid)

    def fetch_from(
        self,
        remote: "BitswapEngine",
        cid: str,
        deliver=None,
        retry=None,
    ) -> Optional[bytes]:
        """One want/block round trip against a connected remote engine.

        This is the exchange a resolved provider serves after being dialled:
        we send WANT(cid), the remote serves the block from its store, and we
        store the block.  Returns the block, or ``None`` when the remote does
        not have it.

        ``deliver`` is an optional fault gate (``() -> bool``, from
        :mod:`repro.faults`): when it returns False the exchange is lost on
        the wire before the remote serves anything.  ``retry`` is an optional
        duck-typed executor with ``call(fn)`` that re-issues lost exchanges
        with backoff.  Both default to the fault-free single-shot behaviour.
        """

        def attempt() -> Optional[bytes]:
            if deliver is not None and not deliver():
                return None
            return remote.handle_want(cid)

        if retry is None:
            block = attempt()
        else:
            block = retry.call(attempt)
        if block is None:
            return None
        self.add_block(cid, block)
        return block
