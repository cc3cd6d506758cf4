"""Tests for the go-ipfs configuration model."""

import dataclasses

import pytest

from repro.ipfs.config import GO_IPFS_011_DEV, IpfsConfig
from repro.kademlia.dht import DHTMode


class TestIpfsConfig:
    def test_defaults_match_goipfs(self):
        config = IpfsConfig.defaults()
        assert config.low_water == 600
        assert config.high_water == 900
        assert config.dht_mode is DHTMode.SERVER
        assert config.agent_version == GO_IPFS_011_DEV

    def test_invalid_watermarks_rejected(self):
        with pytest.raises(ValueError):
            IpfsConfig(low_water=1000, high_water=500)

    def test_invalid_poll_interval_rejected(self):
        with pytest.raises(ValueError):
            IpfsConfig(poll_interval=0)

    def test_as_client_and_server(self):
        config = IpfsConfig.defaults()
        client = IpfsConfig(dht_mode=DHTMode.CLIENT)
        assert client.dht_mode is DHTMode.CLIENT
        # frozen dataclass: a config is never switched in place
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.dht_mode = DHTMode.CLIENT
        assert config.dht_mode is DHTMode.SERVER

    def test_with_watermarks(self):
        config = IpfsConfig(low_water=18_000, high_water=20_000)
        assert (config.low_water, config.high_water) == (18_000, 20_000)

    def test_connmgr_config_propagates_values(self):
        config = IpfsConfig(low_water=50, high_water=80, grace_period=5.0)
        connmgr = config.connmgr_config()
        assert connmgr.low_water == 50
        assert connmgr.high_water == 80
        assert connmgr.grace_period == 5.0
