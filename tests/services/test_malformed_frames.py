"""A frame the handler cannot parse is a counted drop, on every service
and backend, and never costs the frames around it."""

import pytest

from repro.core.protocols.icmp import build_icmp_echo_request
from repro.core.protocols.tcp import TCPFlags, build_tcp
from repro.core.protocols.udp import build_udp
from repro.deploy import deploy
from repro.errors import ParseError
from repro.net.packet import Frame
from repro.services.base import EmuService
from repro.services.catalog import CLIENT_IP, SERVICE_IP, registry
from repro.kiwi.runtime import pause

MACS = (0x020000000001, 0x0200000000AA)

#: Ethertype IPv4 and nothing an IPv4 header fits in.
RUNT = bytes(12) + b"\x08\x00" + bytes(6)

MALFORMED = {
    "runt": RUNT,
    # A whole IPv4 header announcing an L4 header that is not there.
    "udp-cut": bytes(build_udp(*MACS, CLIENT_IP, SERVICE_IP, 40000,
                               11211, b""))[:38],
    "tcp-cut": bytes(build_tcp(*MACS, CLIENT_IP, SERVICE_IP, 40000, 7,
                               TCPFlags.SYN))[:44],
    "icmp-cut": bytes(build_icmp_echo_request(
        *MACS, CLIENT_IP, SERVICE_IP))[:37],
}

SERVICES = sorted(registry())

#: (service, shape) pairs whose handler reads a header the frame does
#: not hold — each raised out of ``send`` before the drop was decided in
#: ``EmuService``.  Everything else drops (or, the switch and the
#: filter's non-TCP/UDP path, floods) without parsing that far.
COUNTED = {(service, "runt") for service in SERVICES
           if service != "switch"} | {
    ("icmp", "icmp-cut"), ("tcp_ping", "tcp-cut"), ("dns", "udp-cut"),
    ("memcached", "udp-cut"), ("nat", "udp-cut"), ("nat", "tcp-cut"),
    ("nat", "icmp-cut"), ("filter", "udp-cut"), ("filter", "tcp-cut"),
}


@pytest.mark.parametrize("backend", ["cpu", "fpga"])
@pytest.mark.parametrize("service", SERVICES)
@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_no_backend_raises(service, backend, shape):
    dep = deploy(service).on(backend).start()
    try:
        emitted, latency = dep.send(Frame(MALFORMED[shape], src_port=0))
        counted = (service, shape) in COUNTED
        assert dep.target.service.malformed == int(counted)
        if counted:
            assert emitted == [] and latency is None
        assert dep.metrics.requests == 1
        assert dep.metrics.drops == (0 if emitted else 1)
    finally:
        dep.stop()


class _RaisesInThirdSegment(EmuService):
    def on_frame(self, dataplane):
        dataplane.dst_ports = 0b0110
        yield pause()
        yield pause()
        raise ParseError("bad field, found late")


def test_drop_is_decided_once_for_both_semantics():
    service = _RaisesInThirdSegment()
    assert service.process(Frame(RUNT)).dst_ports == 0
    dataplane, cycles = service.process_counting(Frame(RUNT))
    assert dataplane.dst_ports == 0
    assert cycles == 3                   # counted up to the raising segment
    assert service.malformed == 2
    assert EmuService.malformed == 0


def test_only_parse_errors_are_drops():
    class Broken(EmuService):
        def on_frame(self, dataplane):
            yield pause()
            raise KeyError("a bug, not a bad frame")

    with pytest.raises(KeyError):
        Broken().process(Frame(RUNT))
    with pytest.raises(KeyError):
        Broken().process_counting(Frame(RUNT))


def _memcached_burst():
    from repro.core.protocols.memcached import build_binary_get, \
        build_binary_set, build_udp_frame_header

    def request(index, body):
        return Frame(build_udp(
            *MACS, CLIENT_IP, SERVICE_IP, 40000 + index, 11211,
            build_udp_frame_header(index) + body), src_port=0).pad()

    sets = [request(i, build_binary_set(b"key%03d" % i, b"12345678"))
            for i in range(3)]
    gets = [request(3 + i, build_binary_get(b"key%03d" % (i % 3)))
            for i in range(5)]
    return sets + [Frame(RUNT, src_port=0)] + gets


def test_a_runt_mid_burst_costs_only_itself(bursts):
    """Wherever the cut falls — one whole burst, ``send`` frame by
    frame, a ragged cut with the runt first, last or alone — the runt
    is one counted drop and every neighbour is served."""
    observed = []
    for sizes in ([9], None, [4, 5], [3, 1, 5], [2]):
        dep = deploy("memcached").on("fpga").with_opt(3).start()
        try:
            target = dep.target
            frames = _memcached_burst()
            if sizes is None:
                results = [target.send(frame) for frame in frames]
            else:
                results = [outcome for burst in bursts(frames, sizes)
                           for outcome in target.send_batch(burst)]
            assert [bool(emitted) for emitted, *_ in results] == \
                [True] * 3 + [False] + [True] * 5
            service = target.service
            assert (service.sets, service.gets, service.hits) == (3, 5, 5)
            assert service.malformed == 1
            pipeline = target.pipeline
            assert (pipeline.frames_in, pipeline.frames_out) == (9, 8)
            assert len(results) == 9
            assert sum(latency is not None
                       for _, latency, _, _ in results) == 8
            assert all(service_ns > 0 for *_, service_ns in results)
            observed.append(
                [([bytes(reply.data) for _, reply in emitted], latency,
                  cycles, service_ns)
                 for emitted, latency, cycles, service_ns in results])
        finally:
            dep.stop()
    assert all(other == observed[0] for other in observed[1:])
