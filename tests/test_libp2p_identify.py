"""Tests for identify records."""

from repro.libp2p.identify import IdentifyRecord
from repro.libp2p.multiaddr import Multiaddr
from repro.libp2p.protocols import BITSWAP_120, IPFS_ID, KAD_DHT


def make_record(server=True):
    protocols = {IPFS_ID, BITSWAP_120}
    if server:
        protocols.add(KAD_DHT)
    return IdentifyRecord.make(
        agent_version="go-ipfs/0.11.0/abc",
        protocols=protocols,
        listen_addrs=[Multiaddr.tcp("1.2.3.4")],
    )


class TestIdentifyRecord:
    def test_dht_server_detection(self):
        assert make_record(server=True).is_dht_server()
        assert not make_record(server=False).is_dht_server()

    def test_bitswap_detection(self):
        assert make_record().has_bitswap()

    def test_records_are_hashable_value_objects(self):
        assert make_record() == make_record()
        assert len({make_record(), make_record()}) == 1
