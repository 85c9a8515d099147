"""Reference models the benchmark verifies replies against.

Written from the wire formats (memcached binary / ASCII over UDP,
RFC 1035 DNS), not from the program: nothing here imports
``repro.services`` or the program's codecs, so a change that breaks a
reply cannot also break the expectation.  Each model consumes requests
in stream order and returns the exact reply bytes a correct server
sends, including the state a request leaves behind.
"""

import struct

# memcached-over-UDP frame header: request id, sequence, datagram
# count, reserved — a single-datagram reply echoes the request id.
_MC_FRAME = struct.Struct(">HHHH")
# memcached binary header: magic, opcode, key length, extras length,
# data type, status / vbucket, body length, opaque, cas.
_MC_BINARY = struct.Struct(">BBHBBHIIQ")
_MC_GET, _MC_SET = 0x00, 0x01
_MC_KEY_NOT_FOUND = 0x0001

#: The zone the program's catalog serves (§5 evaluation set-up):
#: ``hostNN.example`` -> ``192.0.2.(NN+1)``.
DNS_ZONE = {"host%02d.example" % index: (192 << 24) | (2 << 8) | (index + 1)
            for index in range(16)}


def mc_frame_header(request_id):
    return _MC_FRAME.pack(request_id & 0xFFFF, 0, 1, 0)


def mc_binary_get(seq, key):
    return mc_frame_header(seq) + _MC_BINARY.pack(
        0x80, _MC_GET, len(key), 0, 0, 0, len(key), seq, 0) + key


def mc_binary_set(seq, key, value, flags=0):
    extras = struct.pack(">II", flags, 0)
    body = len(extras) + len(key) + len(value)
    return mc_frame_header(seq) + _MC_BINARY.pack(
        0x80, _MC_SET, len(key), len(extras), 0, 0, body, seq, 0) \
        + extras + key + value


def mc_ascii_get(seq, key):
    return mc_frame_header(seq) + b"get " + key + b"\r\n"


def mc_ascii_set(seq, key, value, flags=0):
    return mc_frame_header(seq) + b"set %s %d 0 %d\r\n%s\r\n" % (
        key, flags, len(value), value)


class MemcachedModel:
    """A dict is the whole store: the workloads stay below the
    server's capacity, so nothing is ever evicted."""

    def __init__(self):
        self.store = {}

    def binary_get(self, seq, key):
        entry = self.store.get(key)
        if entry is None:
            return mc_frame_header(seq) + _MC_BINARY.pack(
                0x81, _MC_GET, 0, 0, 0, _MC_KEY_NOT_FOUND, 0, seq, 0)
        value, flags = entry
        return mc_frame_header(seq) + _MC_BINARY.pack(
            0x81, _MC_GET, 0, 4, 0, 0, 4 + len(value), seq, 0) \
            + struct.pack(">I", flags) + value

    def binary_set(self, seq, key, value, flags=0):
        self.store[key] = (value, flags)
        return mc_frame_header(seq) + _MC_BINARY.pack(
            0x81, _MC_SET, 0, 0, 0, 0, 0, seq, 0)

    def ascii_get(self, seq, key):
        entry = self.store.get(key)
        if entry is None:
            return mc_frame_header(seq) + b"END\r\n"
        value, flags = entry
        return mc_frame_header(seq) + b"VALUE %s %d %d\r\n%s\r\nEND\r\n" % (
            key, flags, len(value), value)

    def ascii_set(self, seq, key, value, flags=0):
        self.store[key] = (value, flags)
        return mc_frame_header(seq) + b"STORED\r\n"


def _dns_question(name):
    labels = b"".join(bytes([len(label)]) + label.encode("ascii")
                      for label in name.split("."))
    return labels + b"\x00" + struct.pack(">HH", 1, 1)   # A, IN


def dns_query(txid, name):
    return struct.pack(">HHHHHH", txid, 0, 1, 0, 0, 0) + _dns_question(name)


def dns_reply(txid, name, zone=DNS_ZONE):
    """Non-recursive answer: one A record (TTL 300, compressed name)
    on a zone hit, NXDOMAIN with the question echoed otherwise."""
    address = zone.get(name)
    if address is None:
        return struct.pack(">HHHHHH", txid, 0x8003, 1, 0, 0, 0) \
            + _dns_question(name)
    return struct.pack(">HHHHHH", txid, 0x8000, 1, 1, 0, 0) \
        + _dns_question(name) \
        + b"\xC0\x0C" + struct.pack(">HHIH", 1, 1, 300, 4) \
        + struct.pack(">I", address)
