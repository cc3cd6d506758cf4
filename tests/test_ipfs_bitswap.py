"""Tests for the Bitswap engine stub."""


from repro.ipfs.bitswap import BitswapEngine
from repro.libp2p.peer_id import PeerId


class TestBitswap:
    def test_want_and_receive_block(self, rng):
        engine = BitswapEngine()
        peer = PeerId.random(rng)
        engine.want("cid-1")
        assert engine._wantlist == {"cid-1"}
        assert engine.handle_block(peer, "cid-1", b"data")
        assert engine.has_block("cid-1")
        assert not engine._wantlist

    def test_unwanted_block_still_stored(self, rng):
        engine = BitswapEngine()
        peer = PeerId.random(rng)
        assert not engine.handle_block(peer, "cid-2", b"xx")
        assert engine.has_block("cid-2")

    def test_handle_want_serves_known_block(self, rng):
        engine = BitswapEngine()
        peer = PeerId.random(rng)
        engine.add_block("cid-3", b"payload")
        assert engine.handle_want(peer, "cid-3") == b"payload"
        assert engine.handle_want(peer, "missing") is None

    def test_ledgers_track_exchanges(self, rng):
        engine = BitswapEngine()
        peer = PeerId.random(rng)
        engine.add_block("cid", b"12345")
        engine.handle_want(peer, "cid")
        engine.handle_block(peer, "other", b"123")
        ledger = engine.ledger_for(peer)
        assert ledger.blocks_sent == 1
        assert ledger.bytes_sent == 5
        assert ledger.blocks_received == 1
        assert ledger.bytes_received == 3

    def test_disabled_engine_does_nothing(self, rng):
        engine = BitswapEngine(enabled=False)
        peer = PeerId.random(rng)
        engine.add_block("cid", b"x")
        assert engine.handle_want(peer, "cid") is None
        assert not engine.handle_block(peer, "cid2", b"y")

    def test_known_peers(self, rng):
        engine = BitswapEngine()
        a, b = PeerId.random(rng), PeerId.random(rng)
        engine.handle_block(a, "c1", b"1")
        engine.handle_block(b, "c2", b"2")
        assert set(engine._ledgers) == {a, b}

    def test_want_for_existing_block_is_noop(self):
        engine = BitswapEngine()
        engine.add_block("cid", b"x")
        engine.want("cid")
        assert not engine._wantlist
