"""Memcached protocols (§4.3): binary over UDP, plus the ASCII protocol.

The paper's first prototype spoke the *binary* protocol over UDP with
6-byte keys and 8-byte values; later extensions added the ASCII protocol
and larger keys/values.  Both are implemented here in full generality —
the size limits live in the server configuration, not the codec.

Memcached-over-UDP prepends an 8-byte *frame header* (request id,
sequence, total datagrams, reserved) to every datagram; both codecs
account for it.
"""

import struct

from repro.core.protocols.udp import UDPWrapper
from repro.errors import ParseError
from repro.utils.bitutil import BitUtil, _unsigned

UDP_FRAME_HEADER_BYTES = 8
BINARY_HEADER_BYTES = 24
# request id, sequence, total datagrams, reserved.
_FRAME_HEADER = struct.Struct("!HHHH")
# magic, opcode, key length, extras length, data type, status/vbucket,
# total body length, opaque, CAS.
_BINARY_HEADER = struct.Struct("!BBHBBHIIQ")


class BinaryMagic:
    REQUEST = 0x80
    RESPONSE = 0x81


class BinaryOpcodes:
    GET = 0x00
    SET = 0x01
    DELETE = 0x04


class BinaryStatus:
    NO_ERROR = 0x0000
    KEY_NOT_FOUND = 0x0001
    KEY_EXISTS = 0x0002
    VALUE_TOO_LARGE = 0x0003
    INVALID_ARGUMENTS = 0x0004
    NOT_STORED = 0x0005
    UNKNOWN_COMMAND = 0x0081
    OUT_OF_MEMORY = 0x0082


def build_udp_frame_header(request_id, sequence=0, total=1):
    """The 8-byte memcached-over-UDP frame header."""
    _unsigned(request_id, sequence, total)
    return _FRAME_HEADER.pack(request_id & 0xFFFF, sequence & 0xFFFF,
                              total & 0xFFFF, 0)


def split_udp_frame(payload):
    """Split a UDP payload into (request_id, body)."""
    if len(payload) < UDP_FRAME_HEADER_BYTES:
        raise ParseError("memcached UDP payload too short")
    return BitUtil.get16(payload, 0), bytes(payload[UDP_FRAME_HEADER_BYTES:])


def memcached_is_write(frame):
    """Classify a memcached-over-UDP :class:`~repro.net.packet.Frame`
    as a store mutation (SET or DELETE) — the per-service classifier
    the multi-core and cluster replication schemes key off."""
    try:
        udp = UDPWrapper(frame.data)
        _, body = split_udp_frame(udp.payload())
    except ParseError:
        return False
    if body[:1] == b"\x80":
        return len(body) > 1 and \
            body[1] in (BinaryOpcodes.SET, BinaryOpcodes.DELETE)
    return body[:4] == b"set " or body[:7] == b"delete "


class MemcachedBinaryWrapper:
    """Typed view of a binary-protocol message (after the UDP header)."""

    def __init__(self, data):
        if len(data) < BINARY_HEADER_BYTES:
            raise ParseError("memcached binary message too short")
        self._data = bytes(data)
        # ``status`` is the vbucket id on requests.
        (self.magic, self.opcode, self.key_length, self.extras_length, _,
         self.status, self.total_body_length, self.opaque, self.cas) = \
            _BINARY_HEADER.unpack_from(self._data)

    @property
    def is_request(self):
        return self.magic == BinaryMagic.REQUEST

    @property
    def is_response(self):
        return self.magic == BinaryMagic.RESPONSE

    def extras(self):
        start = BINARY_HEADER_BYTES
        return self._data[start:start + self.extras_length]

    def key(self):
        start = BINARY_HEADER_BYTES + self.extras_length
        return self._data[start:start + self.key_length]

    def value(self):
        start = (BINARY_HEADER_BYTES + self.extras_length +
                 self.key_length)
        end = BINARY_HEADER_BYTES + self.total_body_length
        return self._data[start:end]


def _build_binary(magic, opcode, key=b"", extras=b"", value=b"",
                  status=0, opaque=0, cas=0):
    _unsigned(status, opaque, cas)
    header = _BINARY_HEADER.pack(
        magic, opcode, len(key) & 0xFFFF, len(extras), 0, status & 0xFFFF,
        (len(extras) + len(key) + len(value)) & 0xFFFFFFFF,
        opaque & 0xFFFFFFFF, cas & 0xFFFFFFFFFFFFFFFF)
    return b"".join((header, extras, key, value))


def build_binary_get(key, opaque=0):
    return _build_binary(BinaryMagic.REQUEST, BinaryOpcodes.GET,
                         key=bytes(key), opaque=opaque)


def build_binary_set(key, value, flags=0, expiry=0, opaque=0):
    extras = int(flags).to_bytes(4, "big") + int(expiry).to_bytes(4, "big")
    return _build_binary(BinaryMagic.REQUEST, BinaryOpcodes.SET,
                         key=bytes(key), extras=extras, value=bytes(value),
                         opaque=opaque)


def build_binary_delete(key, opaque=0):
    return _build_binary(BinaryMagic.REQUEST, BinaryOpcodes.DELETE,
                         key=bytes(key), opaque=opaque)


def build_binary_response(opcode, status=BinaryStatus.NO_ERROR, key=b"",
                          value=b"", extras=b"", opaque=0, cas=0):
    return _build_binary(BinaryMagic.RESPONSE, opcode, key=bytes(key),
                         extras=bytes(extras), value=bytes(value),
                         status=status, opaque=opaque, cas=cas)


# -- ASCII protocol ---------------------------------------------------------

class AsciiCommand:
    """A decoded ASCII-protocol command."""

    __slots__ = ("verb", "key", "flags", "exptime", "value", "noreply")

    def __init__(self, verb, key=b"", flags=0, exptime=0, value=b"",
                 noreply=False):
        self.verb = verb
        self.key = key
        self.flags = flags
        self.exptime = exptime
        self.value = value
        self.noreply = noreply

    def __repr__(self):
        return "AsciiCommand(%s %r)" % (self.verb, self.key)


def parse_ascii_command(payload):
    """Parse one ASCII command (``get``/``set``/``delete``).

    *payload* is the request text after the UDP frame header, e.g.
    ``b"get foo\\r\\n"`` or ``b"set foo 0 0 3\\r\\nbar\\r\\n"``.
    """
    payload = bytes(payload)
    line_end = payload.find(b"\r\n")
    if line_end < 0:
        raise ParseError("ASCII command missing CRLF")
    parts = payload[:line_end].split()
    if not parts:
        raise ParseError("empty ASCII command")
    verb = parts[0].decode("ascii", "replace").lower()
    if verb == "get" or verb == "gets":
        if len(parts) < 2:
            raise ParseError("get needs a key")
        return AsciiCommand("get", key=parts[1])
    if verb == "delete":
        if len(parts) < 2:
            raise ParseError("delete needs a key")
        noreply = len(parts) > 2 and parts[2] == b"noreply"
        return AsciiCommand("delete", key=parts[1], noreply=noreply)
    if verb == "set":
        if len(parts) < 5:
            raise ParseError("set needs key/flags/exptime/bytes")
        try:
            flags = int(parts[2])
            exptime = int(parts[3])
            nbytes = int(parts[4])
        except ValueError:
            raise ParseError("bad numeric field in set")
        noreply = len(parts) > 5 and parts[5] == b"noreply"
        data_start = line_end + 2
        data_end = data_start + nbytes
        if len(payload) < data_end + 2 or \
                payload[data_end:data_end + 2] != b"\r\n":
            raise ParseError("set data block malformed")
        return AsciiCommand("set", key=parts[1], flags=flags,
                            exptime=exptime,
                            value=payload[data_start:data_end],
                            noreply=noreply)
    raise ParseError("unsupported ASCII verb %r" % verb)


def build_ascii_get(key):
    return b"get " + bytes(key) + b"\r\n"


def build_ascii_set(key, value, flags=0, exptime=0, noreply=False):
    head = b"set %s %d %d %d%s\r\n" % (
        bytes(key), flags, exptime, len(value),
        b" noreply" if noreply else b"")
    return head + bytes(value) + b"\r\n"


def build_ascii_delete(key, noreply=False):
    return b"delete " + bytes(key) + \
        (b" noreply" if noreply else b"") + b"\r\n"
