"""Shared fixtures: canonical addresses and request frames."""

import pytest

from repro.net.packet import Frame, ip_to_int, mac_to_int


@pytest.fixture
def macs():
    return {
        "service": mac_to_int("02:00:00:00:00:01"),
        "client": mac_to_int("02:00:00:00:00:aa"),
        "gateway": mac_to_int("02:00:00:00:00:05"),
        "wan": mac_to_int("02:00:00:00:01:00"),
    }


@pytest.fixture
def ips():
    return {
        "service": ip_to_int("10.0.0.1"),
        "client": ip_to_int("10.0.0.2"),
        "public": ip_to_int("198.51.100.1"),
        "remote": ip_to_int("203.0.113.9"),
    }


@pytest.fixture
def bursts():
    """``bursts(items, sizes)``: *items* cut into consecutive bursts,
    sizes cycling — for burst-partition invariance tests."""
    from repro.verify import cut
    return lambda items, sizes: list(cut(items, sizes))


@pytest.fixture
def echo_request(macs, ips):
    from repro.core.protocols.icmp import build_icmp_echo_request
    return Frame(build_icmp_echo_request(
        macs["service"], macs["client"], ips["client"], ips["service"]),
        src_port=1).pad()
