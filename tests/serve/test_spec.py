"""Transport bindings: registry conformance, oracle fidelity, and
stream framing.

The parity tests are the heart of the serving contract: for every
declared binding, ``encap(probe payload)`` through a real deployment
must produce exactly the reply bytes the probe predicted — that is
what lets the external load generator verify replies byte-for-byte
without talking to the deployment at all.
"""

import random

import pytest

from repro.deploy import deploy
from repro.deploy.spec import UNDECLARED, ServiceSpec
from repro.errors import ParseError, ServeError
from repro.serve.spec import (
    LengthPrefixDecoder, MemcachedAsciiDecoder, hash_tag,
    resolve_binding,
)
from repro.services.catalog import registry

SEED = 0x5E11E            # change deliberately, never casually

SERVABLE = {"icmp", "dns", "memcached"}
UNSERVABLE = {"tcp_ping", "nat", "switch", "filter"}


def rng_for(name):
    return random.Random("%s/%s" % (SEED, name))


# -- registry conformance (every service picks a side) -----------------------

def test_every_registry_service_declares_serve_capability():
    for name, spec in registry().items():
        assert spec.declares_serve, (
            "service %r left its socket capability undeclared; give "
            "it serve=ServeSpec(...) or an explicit serve=None" % name)


def test_servable_set_is_exactly_the_request_reply_services():
    specs = registry()
    assert {name for name, spec in specs.items()
            if spec.serve} == SERVABLE
    for name in UNSERVABLE:
        assert specs[name].serve is None


def test_declared_transports():
    specs = registry()
    assert specs["memcached"].serve.transports == ("udp", "tcp")
    assert specs["dns"].serve.transports == ("udp", "tcp")
    assert specs["icmp"].serve.transports == ("udp",)
    assert specs["memcached"].serve.binding().transport == "udp"
    assert specs["memcached"].serve.binding("tcp").frame_decoder \
        is not None


def test_resolve_binding_rejects_unservable_with_clear_error():
    specs = registry()
    for name in UNSERVABLE:
        with pytest.raises(ServeError) as excinfo:
            resolve_binding(specs[name])
        message = str(excinfo.value)
        assert name in message
        assert "netsim" in message


def test_resolve_binding_rejects_undeclared_spec():
    spec = ServiceSpec.adhoc("adhoc", lambda: None)
    assert spec.serve is UNDECLARED
    with pytest.raises(ServeError, match="does not declare"):
        resolve_binding(spec)


def test_resolve_binding_rejects_unknown_transport():
    with pytest.raises(ServeError, match="udp"):
        resolve_binding(registry()["icmp"], "tcp")


# -- oracle fidelity: probe predictions == deployment replies ----------------

@pytest.mark.parametrize("service", sorted(SERVABLE))
def test_probe_oracle_matches_deployment_byte_for_byte(service):
    spec = registry()[service]
    dep = deploy(service).on("cpu").start()
    try:
        for transport in spec.serve.transports:
            binding = resolve_binding(spec, transport)
            for seq in range(24):
                payload, expected = binding.probe(SEED, seq)
                assert len(payload) <= binding.max_payload
                frame = binding.encap(payload, seq)
                emitted, _ = dep.send(frame)
                assert emitted, (service, transport, seq)
                got = bytes(binding.decap(emitted[0][1]))
                assert got == bytes(expected), \
                    (service, transport, seq)
    finally:
        dep.stop()


def test_probes_are_cache_busting_and_order_independent():
    """Two runs with different seeds share no probe bytes, and within
    a run every probe is unique — a cache can never answer."""
    binding = resolve_binding(registry()["memcached"], "udp")
    run_a = {bytes(binding.probe("seed-a", seq)[0])
             for seq in range(30)}
    run_b = {bytes(binding.probe("seed-b", seq)[0])
             for seq in range(30)}
    assert len(run_a) == 30 and len(run_b) == 30
    assert not (run_a & run_b)


def test_hash_tag_is_deterministic_and_seed_sensitive():
    assert hash_tag("s", 1) == hash_tag("s", 1)
    assert hash_tag("s", 1) != hash_tag("s", 2)
    assert hash_tag("s", 1) != hash_tag("t", 1)
    assert len(hash_tag("s", 1, width=8)) == 8


# -- stream framing ----------------------------------------------------------

def test_length_prefix_decoder_reassembles_fragmented_stream():
    rng = rng_for("length-prefix")
    messages = [bytes(rng.randrange(256) for _ in range(
        rng.randrange(1, 80))) for _ in range(20)]
    stream = b"".join(len(m).to_bytes(2, "big") + m for m in messages)
    decoder = LengthPrefixDecoder()
    out = []
    index = 0
    while index < len(stream):
        step = rng.randrange(1, 7)
        out += decoder.feed(stream[index:index + step])
        index += step
    assert [bytes(m) for m in out] == messages


def test_length_prefix_decoder_rejects_oversized_claim():
    decoder = LengthPrefixDecoder(max_message=64)
    with pytest.raises(ParseError):
        decoder.feed((1000).to_bytes(2, "big"))


def test_memcached_ascii_decoder_frames_set_with_value_block():
    decoder = MemcachedAsciiDecoder()
    wire = (b"set k1 0 0 5\r\nhello\r\n"
            b"get k1\r\n"
            b"delete k1\r\n")
    out = []
    for index in range(len(wire)):           # worst case: byte drip
        out += decoder.feed(wire[index:index + 1])
    assert [bytes(m) for m in out] == [
        b"set k1 0 0 5\r\nhello\r\n", b"get k1\r\n", b"delete k1\r\n"]


def test_memcached_ascii_decoder_value_may_contain_crlf():
    decoder = MemcachedAsciiDecoder()
    out = decoder.feed(b"set k 0 0 6\r\nab\r\ncd\r\nget k\r\n")
    assert [bytes(m) for m in out] == [b"set k 0 0 6\r\nab\r\ncd\r\n",
                                       b"get k\r\n"]


def test_memcached_ascii_decoder_rejects_unbounded_garbage():
    decoder = MemcachedAsciiDecoder(max_message=128)
    with pytest.raises(ParseError):
        decoder.feed(b"x" * 4096)            # no CRLF, over the cap
