"""Tests for the Bitswap engine stub."""


from repro.ipfs.bitswap import BitswapEngine


class TestBitswap:
    def test_fetch_stores_the_served_block(self):
        remote, engine = BitswapEngine(), BitswapEngine()
        remote.add_block("cid-1", b"data")
        assert engine.fetch_from(remote, "cid-1") == b"data"
        assert engine.has_block("cid-1")

    def test_lost_exchange_stores_nothing(self):
        remote, engine = BitswapEngine(), BitswapEngine()
        remote.add_block("cid-2", b"xx")
        assert engine.fetch_from(remote, "cid-2", deliver=lambda: False) is None
        assert not engine.has_block("cid-2")

    def test_handle_want_serves_known_block(self):
        engine = BitswapEngine()
        engine.add_block("cid-3", b"payload")
        assert engine.handle_want("cid-3") == b"payload"
        assert engine.handle_want("missing") is None
