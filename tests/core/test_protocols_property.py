"""Seeded property/fuzz tests for the protocol codecs.

Two properties, applied to every codec in ``repro.core.protocols``
(see tests/README.md for the conventions):

* **round trip** — a randomly generated *valid* message must survive
  serialize → parse → serialize byte-identically;
* **garbage tolerance** — random byte garbage (and random truncations
  and bit flips of valid messages) must either parse or raise
  :class:`~repro.errors.ParseError`; no other exception is acceptable.
"""

import random

import pytest

from repro.core.protocols.dns import (
    MAX_PAPER_NAME_BYTES, DNSQuestion, DNSWrapper, QType, RCode,
    build_dns_query, build_dns_response, encode_name,
)
from repro.core.protocols.ethernet import EthernetWrapper, build_ethernet
from repro.core.protocols.ipv4 import IPv4Wrapper, build_ipv4_frame
from repro.core.protocols.memcached import (
    MemcachedBinaryWrapper, build_ascii_delete, build_ascii_get,
    build_ascii_set, build_binary_delete, build_binary_get,
    build_binary_set, parse_ascii_command, split_udp_frame,
)
from repro.core.protocols.tcp import TCPWrapper, build_tcp
from repro.core.protocols.udp import UDPRequest, UDPWrapper, build_udp
from repro.errors import ParseError
from repro.net.packet import Frame
from repro.services import DnsServerService

SEED = 0xE1111            # change deliberately, never casually
CASES = 150


def rng_for(name):
    """One independent, reproducible stream per property."""
    return random.Random("%s/%s" % (SEED, name))


def rand_bytes(rng, low=0, high=64):
    return bytes(rng.getrandbits(8) for _ in range(rng.randint(low, high)))


def rand_token(rng, low=1, high=32):
    """A memcached ASCII key: printable, no whitespace or control."""
    alphabet = ("abcdefghijklmnopqrstuvwxyz"
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-./")
    return "".join(rng.choice(alphabet)
                   for _ in range(rng.randint(low, high))).encode()


def rand_name(rng):
    """A DNS name of 1-3 lowercase labels."""
    label = lambda: "".join(                                 # noqa: E731
        rng.choice("abcdefghijklmnopqrstuvwxyz0123456789")
        for _ in range(rng.randint(1, 12)))
    return ".".join(label() for _ in range(rng.randint(1, 3)))


# -- round trips -------------------------------------------------------------

class TestRoundTrips:
    def test_ethernet(self):
        rng = rng_for("ethernet")
        for _ in range(CASES):
            dst = rng.getrandbits(48)
            src = rng.getrandbits(48)
            ethertype = rng.getrandbits(16)
            payload = rand_bytes(rng)
            wire = build_ethernet(dst, src, ethertype, payload)
            eth = EthernetWrapper(wire)
            rebuilt = build_ethernet(eth.destination_mac, eth.source_mac,
                                     eth.ethertype,
                                     bytes(wire[eth.payload_offset():]))
            assert bytes(rebuilt) == bytes(wire)

    def test_ipv4(self):
        rng = rng_for("ipv4")
        for _ in range(CASES):
            src_ip = rng.getrandbits(32)
            dst_ip = rng.getrandbits(32)
            proto = rng.getrandbits(8)
            ttl = rng.randint(1, 255)
            ident = rng.getrandbits(16)
            payload = rand_bytes(rng)
            wire = build_ipv4_frame(rng.getrandbits(48),
                                    rng.getrandbits(48), src_ip, dst_ip,
                                    proto, payload, ttl=ttl,
                                    identification=ident)
            ip = IPv4Wrapper(wire)
            assert ip.checksum_ok()
            eth = EthernetWrapper(wire)
            rebuilt = build_ipv4_frame(
                eth.destination_mac, eth.source_mac,
                ip.source_ip_address, ip.destination_ip_address,
                ip.protocol, bytes(wire[ip.payload_offset():]),
                ttl=ip.ttl, identification=ip.identification)
            assert bytes(rebuilt) == bytes(wire)

    def test_udp(self):
        rng = rng_for("udp")
        for _ in range(CASES):
            src_ip = rng.getrandbits(32)
            dst_ip = rng.getrandbits(32)
            sport = rng.getrandbits(16)
            dport = rng.getrandbits(16)
            payload = rand_bytes(rng)
            wire = build_udp(rng.getrandbits(48), rng.getrandbits(48),
                             src_ip, dst_ip, sport, dport, payload)
            udp = UDPWrapper(wire)
            ip = IPv4Wrapper(wire)
            assert udp.checksum_ok(ip)
            assert udp.payload() == payload
            eth = EthernetWrapper(wire)
            rebuilt = build_udp(eth.destination_mac, eth.source_mac,
                                ip.source_ip_address,
                                ip.destination_ip_address,
                                udp.source_port, udp.destination_port,
                                udp.payload())
            assert bytes(rebuilt) == bytes(wire)

    def test_tcp(self):
        rng = rng_for("tcp")
        for _ in range(CASES):
            src_ip = rng.getrandbits(32)
            dst_ip = rng.getrandbits(32)
            flags = rng.getrandbits(6)
            seq = rng.getrandbits(32)
            ack = rng.getrandbits(32)
            payload = rand_bytes(rng)
            wire = build_tcp(rng.getrandbits(48), rng.getrandbits(48),
                             src_ip, dst_ip, rng.getrandbits(16),
                             rng.getrandbits(16), flags, seq=seq,
                             ack=ack, payload=payload)
            tcp = TCPWrapper(wire)
            ip = IPv4Wrapper(wire)
            assert tcp.checksum_ok(ip)
            eth = EthernetWrapper(wire)
            rebuilt = build_tcp(
                eth.destination_mac, eth.source_mac,
                ip.source_ip_address, ip.destination_ip_address,
                tcp.source_port, tcp.destination_port, tcp.flags,
                seq=tcp.sequence_number, ack=tcp.ack_number,
                payload=tcp.segment()[tcp.data_offset * 4:])
            assert bytes(rebuilt) == bytes(wire)

    def test_dns_query(self):
        rng = rng_for("dns-query")
        for _ in range(CASES):
            txid = rng.getrandbits(16)
            name = rand_name(rng)
            qtype = rng.choice([QType.A, QType.NS, QType.CNAME,
                                QType.AAAA])
            rd = rng.random() < 0.5
            wire = build_dns_query(txid, name, qtype=qtype,
                                   recursion_desired=rd)
            message = DNSWrapper(wire)
            assert message.header.txid == txid
            assert message.header.recursion_desired == rd
            (question,) = message.questions
            assert question.name == name
            rebuilt = build_dns_query(message.header.txid, question.name,
                                      qtype=question.qtype,
                                      recursion_desired=rd)
            assert rebuilt == wire

    def test_dns_response(self):
        rng = rng_for("dns-response")
        for _ in range(CASES):
            txid = rng.getrandbits(16)
            name = rand_name(rng)
            address = rng.getrandbits(32)
            ttl = rng.randint(0, 1 << 31)
            wire = build_dns_response(txid, DNSQuestion(name),
                                      address=address, ttl=ttl)
            message = DNSWrapper(wire)
            assert message.first_a_record() == address
            (question,) = message.questions
            rebuilt = build_dns_response(message.header.txid, question,
                                         address=message.first_a_record(),
                                         ttl=message.answers[0][3])
            assert rebuilt == wire

    def test_dns_served_reply_is_the_one_built_from_the_name(self):
        """Answering from the query's own bytes changes no byte on a
        well-formed query: the served reply is the response built from
        the name, over qtypes, hits, misses and names over the paper's
        cap (checked as the name's encoding, less its root byte)."""
        rng = rng_for("dns-served")
        for _ in range(CASES):
            txid = rng.getrandbits(16)
            name = rand_name(rng)
            qtype = rng.choice([QType.A, QType.NS, QType.CNAME,
                                QType.AAAA])
            address = rng.getrandbits(32)
            hit = rng.random() < 0.5 and len(name) <= MAX_PAPER_NAME_BYTES
            service = DnsServerService(1, table={name: address} if hit
                                       else None)
            served = service.process(Frame(build_udp(
                2, 3, 4, 1, 4000, 53, build_dns_query(txid, name, qtype))))
            if len(encode_name(name)) - 1 > MAX_PAPER_NAME_BYTES + 1:
                rcode, address = RCode.NAME_ERROR, None
            elif qtype != QType.A:
                rcode, address = RCode.NOT_IMPLEMENTED, None
            elif not hit:
                rcode, address = RCode.NAME_ERROR, None
            else:
                rcode = RCode.NO_ERROR
            assert UDPWrapper(served.tdata).payload() == build_dns_response(
                txid, DNSQuestion(name, qtype), address=address,
                rcode=rcode)

    def test_memcached_binary(self):
        rng = rng_for("mc-binary")
        for _ in range(CASES):
            key = rand_bytes(rng, 1, 250)
            opaque = rng.getrandbits(32)
            kind = rng.choice(["get", "set", "delete"])
            if kind == "get":
                wire = build_binary_get(key, opaque=opaque)
            elif kind == "delete":
                wire = build_binary_delete(key, opaque=opaque)
            else:
                wire = build_binary_set(key, rand_bytes(rng, 0, 1024),
                                        flags=rng.getrandbits(32),
                                        expiry=rng.getrandbits(32),
                                        opaque=opaque)
            message = MemcachedBinaryWrapper(wire)
            assert message.is_request
            assert message.key() == key
            assert message.opaque == opaque
            if kind == "get":
                rebuilt = build_binary_get(message.key(),
                                           opaque=message.opaque)
            elif kind == "delete":
                rebuilt = build_binary_delete(message.key(),
                                              opaque=message.opaque)
            else:
                extras = message.extras()
                rebuilt = build_binary_set(
                    message.key(), message.value(),
                    flags=int.from_bytes(extras[:4], "big"),
                    expiry=int.from_bytes(extras[4:8], "big"),
                    opaque=message.opaque)
            assert rebuilt == wire

    def test_memcached_ascii(self):
        rng = rng_for("mc-ascii")
        for _ in range(CASES):
            key = rand_token(rng)
            kind = rng.choice(["get", "set", "delete"])
            noreply = rng.random() < 0.3
            if kind == "get":
                wire = build_ascii_get(key)
            elif kind == "delete":
                wire = build_ascii_delete(key, noreply=noreply)
            else:
                # Values may contain CRLF: the length field frames them.
                wire = build_ascii_set(key, rand_bytes(rng, 0, 64),
                                       flags=rng.getrandbits(16),
                                       exptime=rng.getrandbits(16),
                                       noreply=noreply)
            command = parse_ascii_command(wire)
            assert command.key == key
            if kind == "get":
                rebuilt = build_ascii_get(command.key)
            elif kind == "delete":
                rebuilt = build_ascii_delete(command.key,
                                             noreply=command.noreply)
            else:
                rebuilt = build_ascii_set(command.key, command.value,
                                          flags=command.flags,
                                          exptime=command.exptime,
                                          noreply=command.noreply)
            assert rebuilt == wire


# -- garbage tolerance -------------------------------------------------------

PARSERS = [
    ("ethernet", lambda data: EthernetWrapper(bytearray(data))),
    ("ipv4", lambda data: IPv4Wrapper(bytearray(data))),
    ("udp", lambda data: UDPWrapper(bytearray(data))),
    ("udp-request", lambda data: getattr(
        UDPRequest.parse(bytearray(data)), "payload", bytes)()),
    ("tcp", lambda data: TCPWrapper(bytearray(data))),
    ("dns", DNSWrapper),
    ("mc-binary", MemcachedBinaryWrapper),
    ("mc-ascii", parse_ascii_command),
    ("mc-frame", split_udp_frame),
]


def assert_parses_or_parse_error(parser, data):
    try:
        parser(data)
    except ParseError:
        pass          # rejecting garbage is the contract
    # Any other exception propagates and fails the test: garbage must
    # never crash a codec.


@pytest.mark.parametrize("name,parser", PARSERS,
                         ids=[name for name, _ in PARSERS])
class TestGarbageTolerance:
    def test_random_garbage(self, name, parser):
        rng = rng_for("garbage/%s" % name)
        for _ in range(CASES):
            assert_parses_or_parse_error(parser, rand_bytes(rng, 0, 128))

    def test_truncations_of_valid_frames(self, name, parser):
        rng = rng_for("truncate/%s" % name)
        wire = bytes(build_udp(rng.getrandbits(48), rng.getrandbits(48),
                               rng.getrandbits(32), rng.getrandbits(32),
                               11211, 11211,
                               b"\x00" * 8 + build_ascii_get(b"key")))
        for cut in range(len(wire)):
            assert_parses_or_parse_error(parser, wire[:cut])

    def test_bit_flips_of_valid_frames(self, name, parser):
        rng = rng_for("bitflip/%s" % name)
        wire = bytes(build_udp(rng.getrandbits(48), rng.getrandbits(48),
                               rng.getrandbits(32), rng.getrandbits(32),
                               11211, 11211,
                               b"\x00" * 8 + build_binary_get(b"abcdef")))
        for _ in range(CASES):
            mutated = bytearray(wire)
            for _ in range(rng.randint(1, 8)):
                bit = rng.randrange(len(mutated) * 8)
                mutated[bit // 8] ^= 1 << (bit % 8)
            assert_parses_or_parse_error(parser, bytes(mutated))
