"""``registry()``: one :class:`~repro.deploy.spec.ServiceSpec` per
deployable service.

This is the single place that knows how to build each paper service
with evaluation-grade defaults (the Table 4 addresses), which workload
drives it, which host-stack baseline it compares against, and which
deploy backends can faithfully run it.  The harness tables, the
examples, the conformance suite, and the ``python -m repro.deploy``
CLI all consume these entries instead of hand-wiring factories.

Addresses match the §5 evaluation setup: the service at ``10.0.0.1``,
the client at ``10.0.0.2``, the NAT gateway public side at
``198.51.100.1``.
"""

from repro.core.protocols.icmp import build_icmp_echo_request
from repro.core.protocols.memcached import memcached_is_write
from repro.core.protocols.tcp import TCPFlags, build_tcp
from repro.core.protocols.udp import build_udp
from repro.deploy.spec import ProtocolClient, ServiceSpec
from repro.hoststack import (
    host_dns, host_icmp_echo, host_memcached, host_nat, host_tcp_ping,
)
from repro.net.packet import Frame, ip_to_int
from repro.net.workloads import (
    dns_query_stream, memaslap_mix, ping_flood, tcp_syn_stream,
)
from repro.serve.spec import (
    ServeSpec, dns_bindings, icmp_bindings, memcached_bindings,
)
from repro.services.dns_server import DnsServerService
from repro.services.filter_l3l4 import FilteringSwitch, FilterRule
from repro.services.icmp_echo import IcmpEchoService
from repro.services.memcached import MemcachedService
from repro.services.nat import NatService
from repro.services.switch import LearningSwitch
from repro.services.tcp_ping import TcpPingService

import random

SERVICE_IP = ip_to_int("10.0.0.1")
CLIENT_IP = ip_to_int("10.0.0.2")
PUBLIC_IP = ip_to_int("198.51.100.1")
REMOTE_IP = ip_to_int("203.0.113.9")

DNS_NAMES = ["host%02d.example" % i for i in range(16)]

LAN_MAC = 0x02_00_00_00_00_AA
GATEWAY_MAC = 0x02_00_00_00_00_05
MAC_A = 0x02_00_00_00_00_AA
MAC_B = 0x02_00_00_00_00_BB

#: Request/reply services route cleanly through every backend;
#: port-semantics services (flooding switches, the two-sided NAT
#: gateway) need a real port space, which the 1-port-per-core
#: scale-out targets don't have.
_KEYED_BACKENDS = ("cpu", "fpga", "multicore", "cluster", "netsim")
_PORT_BACKENDS = ("cpu", "fpga", "netsim")


# -- factories ---------------------------------------------------------------

def make_icmp():
    return IcmpEchoService(my_ip=SERVICE_IP)


def make_tcp_ping():
    return TcpPingService(my_ip=SERVICE_IP, open_ports=(7,))


def make_dns():
    return DnsServerService(
        my_ip=SERVICE_IP,
        table={name: ip_to_int("192.0.2.%d" % (index + 1))
               for index, name in enumerate(DNS_NAMES)})


def make_memcached():
    return MemcachedService(my_ip=SERVICE_IP)


def make_nat():
    return NatService(public_ip=PUBLIC_IP)


def make_switch():
    return LearningSwitch()


def make_filter():
    """The L3/L4-filtered switch with the README's demo chain: no
    telnet, no UDP "game" ports, default accept."""
    switch = FilteringSwitch()
    switch.filter.append(FilterRule(protocol=6, dport_lo=23,
                                    dport_hi=23, verdict="DROP"))
    switch.filter.append(FilterRule(protocol=17, dport_lo=1000,
                                    dport_hi=2000, verdict="DROP"))
    return switch


# -- workloads ---------------------------------------------------------------

def icmp_workload(count, seed=3, **_):
    return ping_flood(SERVICE_IP, CLIENT_IP, count=count)


def tcp_ping_workload(count, seed=3, **_):
    return tcp_syn_stream(SERVICE_IP, CLIENT_IP, dst_port=7,
                          count=count, seed=seed)


def dns_workload(count, seed=3, **_):
    return dns_query_stream(SERVICE_IP, CLIENT_IP, DNS_NAMES,
                            count=count, seed=seed)


def memcached_workload(count, seed=3, protocol="ascii", **_):
    return memaslap_mix(SERVICE_IP, CLIENT_IP, count=count, seed=seed,
                        protocol=protocol)


def nat_workload(count, seed=3, **_):
    """UDP flows from the LAN side through the gateway (§5.4 setup)."""
    rng = random.Random(seed)
    for index in range(count):
        yield _nat_frame(rng.randint(2000, 60000), index)


def nat_trace(count, seed=3, **_):
    """Shard-safe NAT trace: one flow, so the 5-tuple routes every
    frame (and its sequential port allocation) to one shard."""
    for index in range(count):
        yield _nat_frame(3333, index)


def _nat_frame(sport, index):
    frame = Frame(build_udp(
        GATEWAY_MAC, LAN_MAC, CLIENT_IP, REMOTE_IP, sport, 53,
        b"payload-%04d" % (index % 10000)), src_port=0)
    return frame.pad()


def switch_workload(count, seed=3, **_):
    """Two hosts ping-ponging across ports 2 and 0: the first frame
    floods, then both directions forward on learned entries."""
    for index in range(count):
        if index % 2 == 0:
            yield _switch_frame(MAC_B, MAC_A, src_port=2)
        else:
            yield _switch_frame(MAC_A, MAC_B, src_port=0)


def _switch_frame(dst_mac, src_mac, src_port):
    return Frame(build_icmp_echo_request(dst_mac, src_mac, CLIENT_IP,
                                         SERVICE_IP),
                 src_port=src_port).pad()


def filter_workload(count, seed=3, **_):
    """SYNs alternating between an accepted port (ssh) and the dropped
    telnet rule, so both verdict paths are exercised."""
    for index in range(count):
        dport = 22 if index % 2 == 0 else 23
        yield Frame(build_tcp(MAC_B, MAC_A, CLIENT_IP, SERVICE_IP,
                              1234, dport, TCPFlags.SYN,
                              seq=index & 0xFFFFFFFF),
                    src_port=0).pad()


# -- socket serving (see repro.serve) ----------------------------------------
#
# Request/reply services with a client-visible L7 protocol get a
# ServeSpec; everything below it is a *network function* whose
# semantics live in ports/MACs/raw headers that loopback sockets
# cannot carry, so they declare serve=None (explicitly unservable)
# rather than leaving the capability undeclared.

def _serve_icmp():
    return ServeSpec(icmp_bindings(CLIENT_IP, SERVICE_IP))


def _serve_dns():
    table = {name: ip_to_int("192.0.2.%d" % (index + 1))
             for index, name in enumerate(DNS_NAMES)}
    return ServeSpec(dns_bindings(CLIENT_IP, SERVICE_IP, table),
                     port=5353)


def _serve_memcached():
    return ServeSpec(memcached_bindings(CLIENT_IP, SERVICE_IP),
                     port=11211)


# -- protocol clients --------------------------------------------------------

def _client_from_workload(name, workload, **options):
    def request(seed=1, **overrides):
        merged = dict(options)
        merged.update(overrides)
        return next(iter(workload(1, seed, **merged)))
    return ProtocolClient(name, request)


# -- the registry ------------------------------------------------------------

def registry():
    """name -> :class:`ServiceSpec` for every deployable service.

    Returns a fresh dict each call (mutate freely); the specs
    themselves are immutable-by-convention shared descriptions.
    """
    return {spec.name: spec for spec in _build_specs()}


def _build_specs():
    return [
        ServiceSpec(
            "icmp", make_icmp,
            client=_client_from_workload("icmp", icmp_workload),
            workload=icmp_workload,
            host_wrapper=host_icmp_echo,
            backends=_KEYED_BACKENDS,
            serve=_serve_icmp(),
            description="ICMP echo server (§4.2)"),
        ServiceSpec(
            "tcp_ping", make_tcp_ping,
            client=_client_from_workload("tcp_ping", tcp_ping_workload),
            workload=tcp_ping_workload,
            host_wrapper=host_tcp_ping,
            backends=_KEYED_BACKENDS,
            serve=None,  # replies are raw SYN-ACKs, not an L7 payload
            description="TCP reachability responder (§4.2)"),
        ServiceSpec(
            "dns", make_dns,
            client=_client_from_workload("dns", dns_workload),
            workload=dns_workload,
            host_wrapper=host_dns,
            backends=_KEYED_BACKENDS,
            serve=_serve_dns(),
            description="non-recursive DNS server (§4.3)"),
        ServiceSpec(
            "memcached", make_memcached,
            client=_client_from_workload("memcached",
                                         memcached_workload),
            workload=memcached_workload,
            is_write=memcached_is_write,
            host_wrapper=host_memcached,
            backends=_KEYED_BACKENDS,
            serve=_serve_memcached(),
            description="Memcached server (§4.3, §5.4)"),
        ServiceSpec(
            "nat", make_nat,
            client=_client_from_workload("nat", nat_trace),
            workload=nat_workload,
            trace=nat_trace,
            host_wrapper=host_nat,
            backends=_PORT_BACKENDS,
            serve=None,  # two-sided gateway: needs real port spaces
            description="UDP/TCP NAT gateway (§4.4)"),
        ServiceSpec(
            "switch", make_switch,
            client=_client_from_workload("switch", switch_workload),
            workload=switch_workload,
            backends=_PORT_BACKENDS,
            serve=None,  # floods across ports; no socket equivalent
            description="L2 learning switch (§4.1, Fig. 2)"),
        ServiceSpec(
            "filter", make_filter,
            client=_client_from_workload("filter", filter_workload),
            workload=filter_workload,
            backends=_PORT_BACKENDS,
            serve=None,  # port-semantics filter; netsim only
            description="L3/L4 filter + learning switch (§4.1)"),
    ]
