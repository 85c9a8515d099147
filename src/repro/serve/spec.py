"""Per-service socket transports: how raw socket bytes become model
frames and back.

The deployment layer speaks :class:`~repro.net.packet.Frame` — full
Ethernet+IPv4 frames, because that is what the paper's services parse.
A socket client speaks application payloads.  A
:class:`TransportBinding` is the adapter between the two for one
(service, transport) pair:

* ``encap(payload, seq)``  — wrap a received payload into the request
  frame the service expects (catalog addresses, correct ports,
  checksums);
* ``decap(reply_frame)``   — extract the application payload from the
  service's reply frame (what goes back out the socket);
* ``probe(seed, seq)``     — the verification oracle: one hash-tagged
  ``(request_payload, expected_reply_payload)`` pair.  Payloads embed
  a seeded hash tag (uptest-style) so caches and interceptors cannot
  answer from history: every probe is new under a new seed, and the
  expected reply is a byte-exact function of the request;
* ``frame_decoder()``      — for stream transports, a fresh decoder
  that splits the TCP byte stream into per-request payloads
  (length-prefix framing for DNS-over-TCP, CRLF/data-block framing
  for the memcached ASCII protocol);
* ``wrap`` / ``wrap_reply``— the on-the-wire encoding around a payload
  (the 2-byte length prefix on DNS-over-TCP; identity elsewhere).

A :class:`ServeSpec` bundles a service's bindings and is what a
:class:`~repro.deploy.spec.ServiceSpec` carries in its ``serve`` field.
The TCP transport is a *socket-side* concern only: in the model the
service still parses a UDP-encapsulated frame — the binding is exactly
the kernel-bypass shim a hardware deployment would put in front of the
NetFPGA pipeline.

Everything here imports only the protocol codecs and the packet layer,
so the serving front-end, the external load generator, and the service
catalog can all share one oracle without import cycles.
"""

import hashlib

from repro.core.protocols.dns import DNSQuestion, RCode, \
    build_dns_query, build_dns_response
from repro.core.protocols.icmp import HEADER_BYTES as ICMP_HEADER_BYTES
from repro.core.protocols.icmp import ICMPWrapper, build_icmp_echo_request
from repro.core.protocols.memcached import build_udp_frame_header, \
    split_udp_frame
from repro.core.protocols.udp import UDPWrapper, build_udp
from repro.errors import ParseError, ServeError
from repro.net.packet import Frame

#: Largest datagram/request payload a binding accepts (larger input is
#: counted as a service drop, never parsed): the model's frames top out
#: at 1514 bytes, 42 of which are Ethernet+IPv4+UDP headers.
MAX_PAYLOAD_BYTES = 1472

#: Upper bound on a stream decoder's reassembly buffer; a peer that
#: streams this much without completing one request is garbage and the
#: connection is dropped (never an unbounded buffer).
MAX_STREAM_BUFFER = 1 << 20

#: uptest-style cache-busting constant, mixed into every probe tag.
HASH_CONST = b"Bust those caches!"


def hash_tag(seed, seq, width=12):
    """A short hex tag unique to ``(seed, seq)`` — embedded in probe
    payloads so no cache or interceptor can answer from history."""
    digest = hashlib.sha256(
        b"%s/%s/%d" % (HASH_CONST, str(seed).encode("utf-8"), seq))
    return digest.hexdigest()[:width].encode("ascii")


class TransportBinding:
    """One (service, transport) adapter: socket bytes <-> model frames."""

    def __init__(self, transport, encap, decap, probe,
                 frame_decoder=None, wrap=None, wrap_reply=None,
                 max_payload=MAX_PAYLOAD_BYTES):
        if transport not in ("udp", "tcp"):
            raise ServeError("unknown transport %r (udp or tcp)"
                             % (transport,))
        if transport == "tcp" and frame_decoder is None:
            raise ServeError("tcp bindings need a frame_decoder "
                             "(stream framing is not optional)")
        self.transport = transport
        self.encap = encap
        self.decap = decap
        self.probe = probe
        self.frame_decoder = frame_decoder
        self.wrap = wrap if wrap is not None else _identity
        self.wrap_reply = wrap_reply if wrap_reply is not None \
            else _identity
        self.max_payload = int(max_payload)

    def __repr__(self):
        return "TransportBinding(%s)" % (self.transport,)


def _identity(payload):
    return payload


class ServeSpec:
    """A service's socket capability: its transport bindings plus the
    protocol's canonical port (documentation/default only — ``--serve``
    always names an explicit address)."""

    def __init__(self, bindings, port=0):
        self.bindings = tuple(bindings)
        if not self.bindings:
            raise ServeError("a ServeSpec needs at least one binding "
                             "(use serve=None for unservable services)")
        self.port = int(port)

    @property
    def transports(self):
        return tuple(binding.transport for binding in self.bindings)

    def binding(self, transport=None):
        if transport is None:
            return self.bindings[0]
        for binding in self.bindings:
            if binding.transport == transport:
                return binding
        raise ServeError("no %r transport (have: %s)"
                         % (transport, ", ".join(self.transports)))

    def __repr__(self):
        return "ServeSpec(%s, port=%d)" % (
            "+".join(self.transports), self.port)


def resolve_binding(spec, transport=None):
    """The :class:`TransportBinding` to serve *spec* over, or a
    :class:`~repro.errors.ServeError` that names the reason — an
    unservable service must fail fast and loudly, never hang."""
    name = getattr(spec, "name", spec)
    serve = getattr(spec, "serve", None)
    if serve is None and getattr(spec, "declares_serve", False):
        raise ServeError(
            "service %r is explicitly not socket-servable "
            "(transport=None: its semantics need a real port space, "
            "not a request/reply socket); deploy it on netsim instead"
            % (name,))
    if not serve:                        # None without the explicit
        raise ServeError(                # marker, or UNDECLARED
            "service %r does not declare a socket transport; give its "
            "ServiceSpec a serve=ServeSpec(...) (or serve=None to "
            "state it cannot be served)" % (name,))
    try:
        return serve.binding(transport)
    except ServeError as error:
        raise ServeError("service %r: %s" % (name, error))


# -- stream framing decoders -------------------------------------------------

class LengthPrefixDecoder:
    """2-byte big-endian length prefix per message (the RFC 1035
    §4.2.2 framing DNS uses over TCP)."""

    def __init__(self, max_message=MAX_PAYLOAD_BYTES):
        self.max_message = int(max_message)
        self._buffer = bytearray()

    def feed(self, data):
        """Absorb *data*; return the list of complete payloads."""
        self._buffer.extend(data)
        out = []
        while len(self._buffer) >= 2:
            length = int.from_bytes(self._buffer[:2], "big")
            if length > self.max_message:
                raise ParseError("length-prefixed message of %d bytes "
                                 "exceeds the %d-byte cap"
                                 % (length, self.max_message))
            if len(self._buffer) < 2 + length:
                break
            out.append(bytes(self._buffer[2:2 + length]))
            del self._buffer[:2 + length]
        if len(self._buffer) > MAX_STREAM_BUFFER:
            raise ParseError("stream reassembly buffer overflow")
        return out


class MemcachedAsciiDecoder:
    """Split a memcached ASCII command stream into one payload per
    command.  ``set``'s data block (announced by its byte count) is
    kept with its command line; any other line is one command.  A
    malformed byte count falls through as a bare line — the service
    answers ``ERROR`` — so garbage degrades to a rejected request, not
    a wedged stream."""

    def __init__(self, max_message=MAX_PAYLOAD_BYTES):
        self.max_message = int(max_message)
        self._buffer = bytearray()

    def feed(self, data):
        self._buffer.extend(data)
        out = []
        while True:
            line_end = self._buffer.find(b"\r\n")
            if line_end < 0:
                # No valid command line can be longer than one
                # message, so a CRLF-less run past the cap is garbage.
                if len(self._buffer) > self.max_message:
                    raise ParseError(
                        "command line of %d+ bytes exceeds the "
                        "%d-byte cap"
                        % (len(self._buffer), self.max_message))
                break
            need = line_end + 2
            parts = self._buffer[:line_end].split()
            if parts and parts[0] == b"set" and len(parts) >= 5:
                try:
                    need += int(parts[4]) + 2
                except ValueError:
                    pass                 # bare line; service rejects it
            if need > self.max_message:
                raise ParseError("ASCII command of %d bytes exceeds "
                                 "the %d-byte cap"
                                 % (need, self.max_message))
            if len(self._buffer) < need:
                break
            out.append(bytes(self._buffer[:need]))
            del self._buffer[:need]
        if len(self._buffer) > MAX_STREAM_BUFFER:
            raise ParseError("stream reassembly buffer overflow")
        return out


# -- binding builders (the catalog instantiates these with its
#    evaluation addresses) ---------------------------------------------------

def _udp_frame(src_ip, dst_ip, dst_port, payload, seq,
               macs=(0x02_00_00_00_00_01, 0x02_00_00_00_00_AA)):
    """A padded request frame around *payload*, ephemeral source port
    varied by *seq* so scale-out backends spread socket load exactly
    like the built-in workloads do."""
    dst_mac, src_mac = macs
    sport = 32768 + (seq % 16384)
    frame = Frame(build_udp(dst_mac, src_mac, src_ip, dst_ip,
                            sport, dst_port, payload), src_port=0)
    return frame.pad()


def _udp_decap(frame):
    return UDPWrapper(frame.data).payload()


def memcached_bindings(client_ip, service_ip, port=11211):
    """UDP (8-byte frame header included by the client, memcached
    convention) and TCP (ASCII stream; the binding adds/strips the
    in-model UDP frame header the service requires)."""

    def encap_udp(payload, seq):
        return _udp_frame(client_ip, service_ip, port, payload, seq)

    def encap_tcp(payload, seq):
        wire = build_udp_frame_header(seq & 0xFFFF) + payload
        return _udp_frame(client_ip, service_ip, port, wire, seq)

    def decap_tcp(frame):
        _, body = split_udp_frame(_udp_decap(frame))
        return body

    def probe_body(seed, seq):
        """Order-independent probes: every key is new under its tag,
        so replies are exact regardless of reordering or history."""
        tag = hash_tag(seed, seq)
        key = b"lg" + tag
        shape = seq % 3
        if shape == 0:
            value = tag + b"/%06d" % (seq % 1000000)
            body = b"set %s 0 0 %d\r\n%s\r\n" % (key, len(value), value)
            return body, b"STORED\r\n"
        if shape == 1:
            return b"get %s\r\n" % key, b"END\r\n"
        return b"delete %s\r\n" % key, b"NOT_FOUND\r\n"

    def probe_udp(seed, seq):
        body, reply = probe_body(seed, seq)
        header = build_udp_frame_header(seq & 0xFFFF)
        return header + body, header + reply

    return (
        TransportBinding("udp", encap_udp, _udp_decap, probe_udp),
        TransportBinding("tcp", encap_tcp, decap_tcp, probe_body,
                         frame_decoder=MemcachedAsciiDecoder),
    )


def dns_bindings(client_ip, service_ip, table, port=53):
    """UDP (one query per datagram) and TCP (RFC 1035 length-prefix
    framing).  *table* is the served zone (name -> 32-bit address);
    probes alternate table hits with hash-tagged NXDOMAIN lookups —
    the latter are this protocol's cache-buster."""
    names = sorted(table)

    def encap(payload, seq):
        return _udp_frame(client_ip, service_ip, port, payload, seq)

    def probe(seed, seq):
        txid = int(hash_tag(seed, seq, width=4), 16)
        if seq % 2 == 0 and names:
            name = names[(seq // 2) % len(names)]
            address, rcode = table[name], RCode.NO_ERROR
        else:
            name = "h%s.invalid" % hash_tag(seed, seq).decode("ascii")
            address, rcode = None, RCode.NAME_ERROR
        query = build_dns_query(txid, name)
        reply = build_dns_response(txid, DNSQuestion(name),
                                   address=address, rcode=rcode)
        return query, reply

    def length_prefix(payload):
        return len(payload).to_bytes(2, "big") + payload

    return (
        TransportBinding("udp", encap, _udp_decap, probe),
        TransportBinding("tcp", encap, _udp_decap, probe,
                         frame_decoder=LengthPrefixDecoder,
                         wrap=length_prefix, wrap_reply=length_prefix),
    )


def icmp_bindings(client_ip, service_ip):
    """UDP datagrams carrying raw echo payloads; the binding builds the
    checksummed ICMP echo request and the service echoes the payload
    back byte-for-byte."""

    def encap(payload, seq):
        return Frame(build_icmp_echo_request(
            0x02_00_00_00_00_01, 0x02_00_00_00_00_AA,
            client_ip, service_ip, identifier=1,
            sequence=seq & 0xFFFF, payload=payload), src_port=0)

    def decap(frame):
        return ICMPWrapper(frame.data).message()[ICMP_HEADER_BYTES:]

    def probe(seed, seq):
        # >= 18 bytes keeps the frame at/above the 60-byte Ethernet
        # minimum, so the echoed bytes are exactly the sent bytes (no
        # padding ambiguity in the reply).
        payload = b"emu-uptest/" + hash_tag(seed, seq) + \
            b"/%06d" % (seq % 1000000)
        return payload, payload

    return (TransportBinding("udp", encap, decap, probe,
                             max_payload=MAX_PAYLOAD_BYTES - 20),)
