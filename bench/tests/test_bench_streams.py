"""Streams are a pure function of the seed, and the oracle is a
faithful model of the three protocols' replies."""

import pytest

from bench import oracle
from bench.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_different_seed_different(name):
    workload = WORKLOADS[name]
    first = workload.stream(7, slices=1)
    again = workload.stream(7, slices=1)
    other = workload.stream(8, slices=1)
    assert first.wire == again.wire
    assert first.replies == again.replies
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    assert len(first.wire) == len(first.replies) == len(first)


def test_obs_pair_is_sent_the_same_stream():
    assert WORKLOADS["mc_bin_hot_obs"].baseline == "mc_bin_hot"
    assert WORKLOADS["mc_bin_hot"].stream(3, slices=1).digest() == \
        WORKLOADS["mc_bin_hot_obs"].stream(3, slices=1).digest()


def test_tcp_streams_are_length_prefixed():
    stream = WORKLOADS["dns_tcp_cluster"].stream(3, slices=1)
    for payload, wire in zip(stream.payloads[:50], stream.wire):
        assert wire == len(payload).to_bytes(2, "big") + payload
    for reply in stream.replies[:50]:
        assert int.from_bytes(reply[:2], "big") == len(reply) - 2


def test_memcached_model_remembers_what_was_set():
    model = oracle.MemcachedModel()
    assert model.ascii_get(1, b"k").endswith(b"END\r\n")
    assert b"VALUE" not in model.ascii_get(1, b"k")
    assert model.ascii_set(2, b"k", b"abc", flags=5).endswith(b"STORED\r\n")
    assert model.ascii_get(3, b"k")[8:] == b"VALUE k 5 3\r\nabc\r\nEND\r\n"
    # Binary shares the store: status 0, 4 bytes of flags, the value.
    hit = model.binary_get(4, b"k")
    assert hit[8] == 0x81 and hit[14:16] == b"\x00\x00"
    assert hit[-7:] == b"\x00\x00\x00\x05abc"
    miss = model.binary_get(5, b"nope")
    assert miss[14:16] == b"\x00\x01" and len(miss) == 8 + 24


def test_reply_echoes_the_request_id():
    model = oracle.MemcachedModel()
    assert model.binary_set(0x1ABCD, b"k", b"v")[:2] == b"\xAB\xCD"
    assert oracle.mc_ascii_get(0x1ABCD, b"k")[:2] == b"\xAB\xCD"


def test_dns_reply_answers_hits_and_refuses_misses():
    name, address = sorted(oracle.DNS_ZONE.items())[0]
    hit = oracle.dns_reply(0x1234, name)
    assert hit[:4] == b"\x12\x34\x80\x00"
    assert hit[6:8] == b"\x00\x01"                   # one answer
    assert hit[-4:] == address.to_bytes(4, "big")
    miss = oracle.dns_reply(0x1234, "nope.invalid")
    assert miss[:4] == b"\x12\x34\x80\x03"           # NXDOMAIN
    assert miss[6:8] == b"\x00\x00"
    assert miss[12:] == oracle.dns_query(0x1234, "nope.invalid")[12:]
