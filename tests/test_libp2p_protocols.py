"""Tests for protocol sets."""

from repro.libp2p.protocols import (
    KAD_DHT,
    SBPTP,
    baseline_protocols,
    crawler_protocols,
    goipfs_protocols,
    hydra_protocols,
    storm_protocols,
    supports_bitswap,
    supports_dht_server,
)


class TestProtocolSets:
    def test_goipfs_server_announces_kad(self):
        assert KAD_DHT in goipfs_protocols(dht_server=True)

    def test_goipfs_client_does_not_announce_kad(self):
        assert KAD_DHT not in goipfs_protocols(dht_server=False)

    def test_goipfs_default_supports_bitswap(self):
        assert supports_bitswap(goipfs_protocols())

    def test_goipfs_without_bitswap(self):
        protocols = goipfs_protocols(bitswap=False)
        assert not supports_bitswap(protocols)

    def test_hydra_serves_dht_but_no_bitswap(self):
        protocols = hydra_protocols()
        assert supports_dht_server(protocols)
        assert not supports_bitswap(protocols)

    def test_crawler_protocols_minimal(self):
        protocols = crawler_protocols()
        assert not supports_dht_server(protocols)
        assert not supports_bitswap(protocols)

    def test_storm_announces_sbptp_instead_of_bitswap(self):
        # The anomaly the paper highlights: go-ipfs 0.8.0 agents without
        # Bitswap but with /sbptp/, matching IPStorm botnet nodes.
        protocols = storm_protocols()
        assert SBPTP in protocols
        assert not supports_bitswap(protocols)
        assert supports_dht_server(protocols)

    def test_baseline_is_subset_of_goipfs(self):
        assert baseline_protocols() <= goipfs_protocols()
