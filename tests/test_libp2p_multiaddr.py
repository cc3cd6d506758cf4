"""Tests for multiaddress parsing and helpers."""

import ipaddress
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.libp2p.multiaddr import (
    _CHECKED_FIRST_OCTETS,
    Multiaddr,
    advertised_addrs,
    random_private_ipv4,
    random_public_ipv4,
)


def _private_ips(rng):
    return (random_private_ipv4(rng), random_private_ipv4(rng))


class TestParsing:
    def test_parse_tcp(self):
        addr = Multiaddr.parse("/ip4/147.75.80.1/tcp/4001")
        assert addr.ip() == "147.75.80.1"
        assert addr.port() == 4001

    def test_parse_quic(self):
        addr = Multiaddr.parse("/ip4/1.2.3.4/udp/4001/quic")
        assert addr.components[-1] == ("quic", None)
        assert addr.port() == 4001

    def test_parse_rejects_missing_leading_slash(self):
        with pytest.raises(ValueError):
            Multiaddr.parse("ip4/1.2.3.4/tcp/4001")

    def test_parse_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            Multiaddr.parse("/ipx/1.2.3.4")

    def test_parse_rejects_missing_value(self):
        with pytest.raises(ValueError):
            Multiaddr.parse("/ip4")

    def test_round_trip(self):
        text = "/ip4/10.1.2.3/tcp/4001"
        assert str(Multiaddr.parse(text)) == text

    def test_ip6(self):
        addr = Multiaddr.tcp("2001:db8::1")
        assert "/ip6/" in str(addr)
        assert addr.ip() == "2001:db8::1"


class TestCompactness:
    def test_slotted_immutable_and_picklable(self):
        addr = Multiaddr.quic("84.23.11.9", 4002)
        rendered = str(addr)
        assert not hasattr(addr, "__dict__")
        with pytest.raises(AttributeError):
            addr.components = ()
        with pytest.raises(AttributeError):
            addr.scratch = 1
        clone = pickle.loads(pickle.dumps(addr))
        assert clone == addr and hash(clone) == hash(addr) and str(clone) == rendered

    def test_builders_share_port_and_quic_components(self):
        a, b = Multiaddr.quic("1.2.3.4"), Multiaddr.quic("5.6.7.8")
        assert a.components[1] is b.components[1]
        assert a.components[2] is b.components[2]
        assert Multiaddr.tcp("1.2.3.4").components[1] is Multiaddr.tcp("5.6.7.8").components[1]
        assert Multiaddr.parse(str(a)) == a

    def test_ip_is_the_component_string_itself(self):
        # Connection records take the IP once per record: a new string per
        # call would cost one allocation per record.
        ip = random_public_ipv4(random.Random(1))
        assert Multiaddr.tcp(ip).ip() is ip
        assert Multiaddr.quic(ip).ip() is ip

    def test_addresses_for_peer_is_a_tuple(self):
        addrs = advertised_addrs(_private_ips(random.Random(3)), "84.44.22.11", False)
        assert isinstance(addrs, tuple) and len(addrs) == 4


class TestClassification:
    def test_private_address_detected(self):
        assert Multiaddr.tcp("192.168.1.10").is_private()
        assert Multiaddr.tcp("10.0.0.5").is_private()
        assert not Multiaddr.tcp("84.23.11.9").is_private()

    def test_loopback_is_private(self):
        assert Multiaddr.tcp("127.0.0.1").is_private()

    def test_relayed_address(self):
        addr = Multiaddr.parse("/ip4/5.6.7.8/tcp/4001/p2p/QmRelayPeer/p2p-circuit")
        assert str(addr).endswith("/p2p-circuit")
        # the observed IP is the relay's, which is exactly why the paper's
        # IP-grouping estimator struggles with relayed peers
        assert addr.ip() == "5.6.7.8"

    def test_with_peer_appends_p2p_component(self):
        addr = Multiaddr.parse("/ip4/1.2.3.4/tcp/4001/p2p/QmX")
        assert addr.components[-1] == ("p2p", "QmX")
        assert str(addr).endswith("/p2p/QmX")


class TestRandomAddresses:
    def test_random_public_ipv4_is_public(self):
        rng = random.Random(1)
        for _ in range(50):
            addr = Multiaddr.tcp(random_public_ipv4(rng))
            assert not addr.is_private()

    def test_random_private_ipv4_is_private(self):
        rng = random.Random(2)
        for _ in range(50):
            addr = Multiaddr.tcp(random_private_ipv4(rng))
            assert addr.is_private()

    def test_addresses_for_public_peer_include_public_ip(self):
        addrs = advertised_addrs(_private_ips(random.Random(3)), "84.44.22.11", False)
        assert any(a.ip() == "84.44.22.11" for a in addrs)

    def test_addresses_for_nated_peer_hide_public_ip(self):
        addrs = advertised_addrs(_private_ips(random.Random(4)), "84.44.22.11", True)
        assert all(a.ip() != "84.44.22.11" for a in addrs)
        assert all(a.is_private() for a in addrs)


def _reference_is_public(text):
    addr = ipaddress.ip_address(text)
    special = (
        addr.is_private
        or addr.is_loopback
        or addr.is_multicast
        or addr.is_link_local
        or addr.is_reserved
    )
    return not special


def _reference_random_public_ipv4(rng):
    """The ``ipaddress``-only draw ``random_public_ipv4`` used before it
    stopped parsing addresses whose first octet decides the answer."""
    while True:
        octets = [
            rng.randint(1, 223), rng.randint(0, 255), rng.randint(0, 255), rng.randint(1, 254)
        ]
        addr = ipaddress.ip_address(".".join(str(o) for o in octets))
        if _reference_is_public(str(addr)):
            return str(addr)


#: first octets random_public_ipv4 accepts without asking ``ipaddress``
_UNCHECKED_FIRST_OCTETS = sorted(set(range(1, 224)) - _CHECKED_FIRST_OCTETS)


class TestPublicIpStreamIdentity:
    def test_matches_the_ipaddress_only_draw(self):
        # seed 31 rejects and redraws 51 times in these 5 000 (10/8, 127/8, ...)
        rng, reference_rng = random.Random(31), random.Random(31)
        for _ in range(5000):
            drawn = random_public_ipv4(rng)
            assert drawn == _reference_random_public_ipv4(reference_rng)
            assert _reference_is_public(drawn)
        assert rng.getstate() == reference_rng.getstate()

    def test_unchecked_slash_eight_edges_are_public(self):
        assert len(_UNCHECKED_FIRST_OCTETS) == 215
        for first in _UNCHECKED_FIRST_OCTETS:
            assert _reference_is_public(f"{first}.0.0.0"), first
            assert _reference_is_public(f"{first}.255.255.255"), first

    @settings(max_examples=1000, deadline=None)
    @given(
        first=st.sampled_from(_UNCHECKED_FIRST_OCTETS),
        rest=st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)),
    )
    def test_unchecked_first_octets_hold_no_special_block(self, first, rest):
        assert _reference_is_public("%d.%d.%d.%d" % ((first,) + rest))
