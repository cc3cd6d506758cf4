"""Tests for the go-ipfs configuration model."""

import dataclasses

import pytest

from repro.ipfs.config import IpfsConfig
from repro.kademlia.dht import DHTMode


class TestIpfsConfig:
    def test_defaults_match_goipfs(self):
        config = IpfsConfig.defaults()
        assert config.low_water == 600
        assert config.high_water == 900
        assert config.dht_mode is DHTMode.SERVER
        assert config.poll_interval == 30.0

    def test_invalid_watermarks_rejected(self):
        with pytest.raises(ValueError):
            IpfsConfig(low_water=1000, high_water=500)

    def test_invalid_poll_interval_rejected(self):
        with pytest.raises(ValueError):
            IpfsConfig(poll_interval=0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"low_water": -1, "high_water": 10}, "low_water -1 < 0"),
            ({"low_water": 200, "high_water": 100}, "high_water 100 < low_water 200"),
            ({"high_water": 599}, "high_water 599 < low_water 600"),
            ({"poll_interval": 0.0}, "poll_interval 0.0 <= 0"),
            ({"poll_interval": float("nan")}, "poll_interval nan <= 0"),
        ],
    )
    def test_errors_name_the_field_and_its_value(self, fields, message):
        with pytest.raises(ValueError) as raised:
            IpfsConfig(**fields)
        assert str(raised.value) == message

    def test_only_read_settings_are_fields(self):
        assert [field.name for field in dataclasses.fields(IpfsConfig)] == [
            "low_water",
            "high_water",
            "dht_mode",
            "poll_interval",
        ]

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
        config = IpfsConfig(low_water=50, high_water=80)
        connmgr = config.connmgr_config()
        assert connmgr.low_water == 50
        assert connmgr.high_water == 80
