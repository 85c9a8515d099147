"""``UDPRequest``: the decoded-once view agrees with the field wrappers.

The wrappers are the reference: ``parse`` is checked against
``is_ipv4`` + ``IPv4Wrapper`` + ``UDPWrapper``, ``reply`` against the
nine-line turn-around the reply services carried before the view, and
the one-pack ``build_udp`` against the nested per-header builders.
"""

import random
import struct

import pytest

from repro.core.checksum import udp_checksum
from repro.core.dataplane import TData
from repro.core.protocols.ethernet import EthernetWrapper, EtherTypes, \
    build_ethernet
from repro.core.protocols.ipv4 import IPProtocols, IPv4Wrapper, build_ipv4
from repro.core.protocols.tcp import TCPFlags, build_tcp
from repro.core.protocols.udp import UDPRequest, UDPWrapper, build_udp
from repro.errors import BitRangeError, ParseError
from repro.utils.bitutil import BitUtil

DST_MAC, SRC_MAC = 0x020000000001, 0x0200000000AA
SRC_IP, DST_IP = 0x0A000001, 0x0A000002


def wrapper_reply(buf, payload, ttl=64):
    """The turn-around as the services wrote it, field by field."""
    eth, ip, udp = EthernetWrapper(buf), IPv4Wrapper(buf), UDPWrapper(buf)
    eth.swap_macs()
    ip.swap_ips()
    if ttl is not None:
        ip.ttl = ttl
    udp.swap_ports()
    udp.set_payload(payload)
    ip.total_length = ip.header_bytes + udp.length
    ip.update_checksum()
    udp.update_checksum(ip)


def view_reply(buf, payload, ttl=64):
    request = UDPRequest.parse(buf)
    request.reply(payload, ttl=request.ttl if ttl is None else ttl)


def with_options(frame, ihl, rng):
    """*frame* (IHL 5) with ``ihl - 5`` words of IPv4 options spliced
    in, total length and header checksum brought along."""
    options = bytes(rng.randrange(256) for _ in range((ihl - 5) * 4))
    out = TData(bytes(frame[:34]) + options + bytes(frame[34:]))
    ip = IPv4Wrapper(out)
    ip.ihl = ihl
    ip.total_length = ip.total_length + len(options)
    ip.update_checksum()
    return out


def requests(seed, count=300):
    """Seeded request frames over every shape the reply must survive."""
    rng = random.Random(seed)
    for index in range(count):
        size = rng.choice((0, 1, 2, 7, 8, 17, 18, 19, 64, 199, 200, 1400))
        payload = bytes(rng.randrange(256) for _ in range(size))
        frame = TData(build_udp(
            rng.getrandbits(48), rng.getrandbits(48), rng.getrandbits(32),
            rng.getrandbits(32), rng.getrandbits(16), rng.getrandbits(16),
            payload, with_checksum=rng.random() < 0.8))
        ip = IPv4Wrapper(frame)
        ip.identification = rng.getrandbits(16)
        ip.flags_fragment = rng.getrandbits(16)
        ip.dscp_ecn = rng.getrandbits(8)
        ip.ttl = rng.randrange(1, 256)
        ip.update_checksum()
        if index % 3 == 1:
            frame = with_options(frame, rng.randrange(6, 16), rng)
        if index % 5 == 2 and len(frame) < 60:
            frame.extend(bytes(60 - len(frame)))         # Ethernet padding
        if index % 7 == 3:
            UDPWrapper(frame).length = 0                 # "to end of buffer"
        answer = bytes(rng.randrange(256) for _ in range(
            rng.choice((0, 1, 8, 9, size, size + 1, max(0, size - 1),
                        300))))
        yield frame, answer, rng.choice((64, 64, 1, 255, None))


def divergences(reply, seed="udp-request/reply"):
    """Frames on which *reply* and the wrapper sequence disagree."""
    found = []
    for frame, answer, ttl in requests(seed):
        expected, got = TData(frame), TData(frame)
        wrapper_reply(expected, answer, ttl)
        reply(got, answer, ttl)
        if got != expected:
            found.append((bytes(frame).hex(), answer.hex(), ttl))
    return found


class TestReply:
    def test_matches_the_wrapper_turn_around(self):
        assert divergences(view_reply) == []

    def test_corpus_covers_the_shapes(self):
        frames = [frame for frame, _, _ in requests("udp-request/reply")]
        ihls = {IPv4Wrapper(frame).ihl for frame in frames}
        assert 5 in ihls and max(ihls) == 15
        assert any(UDPWrapper(frame).length == 0 for frame in frames)
        assert any(len(frame) == 60 and UDPWrapper(frame).length < 26
                   for frame in frames)

    def test_options_and_identification_survive(self):
        rng = random.Random(4)
        frame = with_options(TData(build_udp(
            DST_MAC, SRC_MAC, SRC_IP, DST_IP, 40000, 53, b"question")),
            7, rng)
        ip = IPv4Wrapper(frame)
        ip.identification, ip.flags_fragment, ip.dscp_ecn = 0xBEEF, 0x4000, 0x2E
        options = bytes(frame[34:42])
        UDPRequest.parse(frame).reply(b"a much longer answer than that")
        assert (ip.identification, ip.flags_fragment, ip.dscp_ecn) == \
            (0xBEEF, 0x4000, 0x2E)
        assert bytes(frame[34:42]) == options and ip.ihl == 7
        assert ip.checksum_ok() and UDPWrapper(frame).checksum_ok()
        assert ip.ttl == 64 and ip.total_length == len(frame) - 14

    def test_zero_udp_checksum_goes_out_as_ffff(self):
        frame = TData(build_udp(DST_MAC, SRC_MAC, SRC_IP, DST_IP,
                                40000, 11211, b"q"))
        # Search a two-byte answer whose datagram sums to -0.
        for word in range(0x10000):
            answer = struct.pack("!H", word)
            datagram = struct.pack("!HHHH", 11211, 40000, 10, 0) + answer
            if udp_checksum(DST_IP, SRC_IP, datagram) == 0xFFFF and \
                    word not in (0, 0xFFFF):
                break
        UDPRequest.parse(frame).reply(answer)
        assert UDPWrapper(frame).checksum == 0xFFFF
        assert UDPWrapper(frame).checksum_ok()

    @pytest.mark.parametrize("mutation", ["ttl", "ip-checksum",
                                          "udp-checksum", "port"])
    def test_a_wrong_byte_is_caught(self, mutation):
        def mutated(buf, payload, ttl=64):
            view_reply(buf, payload, ttl)
            offset = IPv4Wrapper(buf).payload_offset()
            if mutation == "ttl":
                buf[22] ^= 0x01
            elif mutation == "ip-checksum":
                buf[25] ^= 0x80
            elif mutation == "udp-checksum":
                buf[offset + 7] ^= 0x01
            else:                        # ports left as they arrived
                buf[offset:offset + 4] = \
                    buf[offset + 2:offset + 4] + buf[offset:offset + 2]
        assert divergences(mutated)


def wrapper_parse(buf):
    """What the services did before the view: ``None`` where they
    returned without touching an L4 wrapper, else the decoded fields."""
    if not TData(buf).is_ipv4():
        return None
    ip = IPv4Wrapper(buf)
    if ip.protocol != IPProtocols.UDP:
        return None
    udp = UDPWrapper(buf)
    return (ip.source_ip_address, ip.destination_ip_address, ip.ttl,
            udp.source_port, udp.destination_port, udp.length,
            udp.payload())


def outcome(parse, buf):
    try:
        return parse(buf)
    except ParseError as error:
        return "ParseError: %s" % error


def view_parse(buf):
    request = UDPRequest.parse(buf)
    if request is None:
        return None
    return (request.source_ip_address, request.destination_ip_address,
            request.ttl, request.source_port, request.destination_port,
            request.length, request.payload())


class TestParse:
    FRAMES = {
        "udp": build_udp(DST_MAC, SRC_MAC, SRC_IP, DST_IP, 40000, 53,
                         b"payload-bytes"),
        "udp-options": with_options(TData(build_udp(
            DST_MAC, SRC_MAC, SRC_IP, DST_IP, 40000, 53, b"payload")),
            9, random.Random(1)),
        "tcp": build_tcp(DST_MAC, SRC_MAC, SRC_IP, DST_IP, 40000, 80,
                         TCPFlags.SYN),
        "arp": build_ethernet(DST_MAC, SRC_MAC, EtherTypes.ARP, bytes(28)),
    }

    @pytest.mark.parametrize("name", sorted(FRAMES))
    @pytest.mark.parametrize("kind", [bytes, bytearray, TData])
    def test_every_truncation_agrees(self, name, kind):
        frame = bytes(self.FRAMES[name])
        for cut in range(len(frame) + 1):
            buf = kind(frame[:cut])
            assert outcome(view_parse, buf) == \
                outcome(wrapper_parse, buf), (name, cut)

    def test_header_boundaries(self):
        frame = bytes(self.FRAMES["udp"])
        assert UDPRequest.parse(frame[:13]) is None
        assert UDPRequest.parse(b"") is None
        for cut, layer in ((14, "IPv4"), (33, "IPv4"), (34, "UDP"),
                           (41, "UDP")):
            with pytest.raises(ParseError, match=layer):
                UDPRequest.parse(frame[:cut])
        assert UDPRequest.parse(frame[:42]).payload() == b""
        options = bytes(self.FRAMES["udp-options"])
        with pytest.raises(ParseError, match="UDP"):
            UDPRequest.parse(options[:14 + 36 + 7])
        assert UDPRequest.parse(options[:14 + 36 + 8]) is not None

    def test_payload_strips_padding_and_honours_zero_length(self):
        frame = TData(build_udp(DST_MAC, SRC_MAC, SRC_IP, DST_IP,
                                40000, 53, b"abc"))
        frame.extend(bytes(60 - len(frame)))
        assert UDPRequest.parse(frame).payload() == b"abc"
        UDPWrapper(frame).length = 0
        assert UDPRequest.parse(frame).payload() == \
            UDPWrapper(frame).payload() == b"abc" + bytes(15)
        UDPWrapper(frame).length = 3             # shorter than its header
        assert UDPRequest.parse(frame).payload() == b""


def nested_build_udp(dst_mac, src_mac, src_ip, dst_ip, src_port, dst_port,
                     payload, with_checksum=True):
    """``build_udp`` as it was: datagram, then IPv4, then Ethernet."""
    if min(src_port, dst_port) < 0:
        raise BitRangeError("header fields must be unsigned")
    datagram = bytearray(struct.pack(
        "!HHHH", src_port & 0xFFFF, dst_port & 0xFFFF,
        (8 + len(payload)) & 0xFFFF, 0) + bytes(payload))
    if with_checksum:
        BitUtil.set16(datagram, 6, udp_checksum(src_ip, dst_ip, datagram))
    return build_ethernet(dst_mac, src_mac, EtherTypes.IPV4, build_ipv4(
        src_ip, dst_ip, IPProtocols.UDP, datagram))


class TestBuildUdp:
    def test_one_pack_matches_the_nested_builders(self):
        rng = random.Random("udp-request/build")
        for _ in range(300):
            args = (rng.getrandbits(rng.choice((48, 50))),
                    rng.getrandbits(48),
                    rng.getrandbits(rng.choice((32, 35))),
                    rng.getrandbits(32),
                    rng.getrandbits(rng.choice((16, 18))),
                    rng.getrandbits(16),
                    bytes(rng.randrange(256) for _ in range(
                        rng.choice((0, 1, 2, 17, 18, 64, 1472)))))
            for with_checksum in (True, False):
                built = build_udp(*args, with_checksum=with_checksum)
                assert isinstance(built, bytearray)
                assert built == nested_build_udp(
                    *args, with_checksum=with_checksum)

    def test_payload_kinds(self):
        for payload in (b"emu", bytearray(b"emu"), memoryview(b"emu")):
            assert build_udp(DST_MAC, SRC_MAC, SRC_IP, DST_IP, 1, 2,
                             payload) == nested_build_udp(
                DST_MAC, SRC_MAC, SRC_IP, DST_IP, 1, 2, bytes(payload))

    @pytest.mark.parametrize("position", range(6))
    def test_negative_fields_are_refused(self, position):
        args = [DST_MAC, SRC_MAC, SRC_IP, DST_IP, 40000, 11211]
        args[position] = -args[position]
        with pytest.raises(BitRangeError):
            nested_build_udp(*args, b"x")
        with pytest.raises(BitRangeError):
            build_udp(*args, b"x")
