"""DNS wire format — enough for the non-recursive server of §4.3.

The paper's prototype resolves names of at most 26 bytes to IPv4
addresses and answers NXDOMAIN for unknown names; we implement the full
header, question and A-record answer encoding (plus name compression
pointers on decode) so the constraint is a *server* policy, not a parser
limitation — matching "these constraints can be relaxed".

A reply carries back the question exactly as it was received: a
decoded :class:`DNSQuestion` encodes to the bytes it was read from.
"""

import struct

from repro.errors import ParseError
from repro.utils.bitutil import _unsigned

HEADER_BYTES = 12
_HEADER = struct.Struct("!HHHHHH")  # txid, flags, qd/an/ns/ar counts
_QUESTION_TAIL = struct.Struct("!HH")       # qtype, qclass
_ANSWER_FIXED = struct.Struct("!HHIH")      # qtype, qclass, ttl, rdlength
_A_ANSWER = struct.Struct("!HHHIHI")  # pointer, qtype, class, ttl, 4, IP
MAX_PAPER_NAME_BYTES = 26


class QType:
    A = 1
    NS = 2
    CNAME = 5
    AAAA = 28


class QClass:
    IN = 1


class RCode:
    NO_ERROR = 0
    FORMAT_ERROR = 1
    SERVER_FAILURE = 2
    NAME_ERROR = 3          # NXDOMAIN
    NOT_IMPLEMENTED = 4


def encode_name(name):
    """``"a.example.com"`` → DNS label wire encoding."""
    if name.endswith("."):
        name = name[:-1]
    out = bytearray()
    if name:
        for label in name.split("."):
            raw = label.encode("ascii")
            if not 1 <= len(raw) <= 63:
                raise ParseError("bad DNS label %r" % label)
            out.append(len(raw))
            out.extend(raw)
    out.append(0)
    return bytes(out)


def decode_name(data, offset):
    """Decode a (possibly compressed) name; returns ``(name, next_off)``."""
    labels = []
    jumps = 0
    next_off = None
    while True:
        if offset >= len(data):
            raise ParseError("truncated DNS name")
        length = data[offset]
        if length == 0:
            offset += 1
            break
        if length & 0xC0 == 0xC0:       # compression pointer
            if offset + 1 >= len(data):
                raise ParseError("truncated DNS pointer")
            if next_off is None:
                next_off = offset + 2
            offset = ((length & 0x3F) << 8) | data[offset + 1]
            jumps += 1
            if jumps > 32:
                raise ParseError("DNS pointer loop")
            continue
        if length > 63:
            raise ParseError("bad DNS label length %d" % length)
        if offset + 1 + length > len(data):
            raise ParseError("truncated DNS label")
        labels.append(bytes(data[offset + 1:offset + 1 + length])
                      .decode("ascii", "replace"))
        offset += 1 + length
    name = ".".join(labels)
    return name, (next_off if next_off is not None else offset)


class DNSHeader:
    """Decoded DNS header fields."""

    __slots__ = ("txid", "flags", "qdcount", "ancount", "nscount", "arcount")

    def __init__(self, txid=0, flags=0, qdcount=0, ancount=0, nscount=0,
                 arcount=0):
        self.txid = txid
        self.flags = flags
        self.qdcount = qdcount
        self.ancount = ancount
        self.nscount = nscount
        self.arcount = arcount

    @property
    def is_query(self):
        return not (self.flags & 0x8000)

    @property
    def rcode(self):
        return self.flags & 0x000F

    @property
    def recursion_desired(self):
        return bool(self.flags & 0x0100)

    def encode(self):
        fields = (self.txid, self.flags, self.qdcount, self.ancount,
                  self.nscount, self.arcount)
        _unsigned(*fields)
        return _HEADER.pack(*[field & 0xFFFF for field in fields])

    @classmethod
    def decode(cls, data):
        if len(data) < HEADER_BYTES:
            raise ParseError("truncated DNS header")
        return cls(*_HEADER.unpack_from(data))


class DNSQuestion:
    """One question entry.  A decoded one keeps the bytes it was read
    from in ``wire`` and encodes to exactly them; one built from a
    name (``wire`` is ``None``) encodes from that name."""

    __slots__ = ("name", "qtype", "qclass", "wire")

    def __init__(self, name, qtype=QType.A, qclass=QClass.IN):
        self.name = name
        self.qtype = qtype
        self.qclass = qclass
        self.wire = None

    def encode(self):
        if self.wire is not None:
            return self.wire
        return encode_name(self.name) + \
            _QUESTION_TAIL.pack(self.qtype, self.qclass)

    @classmethod
    def decode(cls, data, offset):
        """Read the question at *offset* in one pass; returns
        ``(question, next_off)``.  The name is the labels joined by
        dots, a byte outside ASCII read as U+FFFD.  A compression
        pointer is refused: the question is the message's first name,
        so it could only point into the header or forward."""
        start, labels = offset, []
        try:
            length = data[offset]
            while length:
                if length > 63:
                    raise ParseError("DNS label length %d in a question"
                                     % length)
                offset += 1 + length
                labels.append(data[offset - length:offset])
                length = data[offset]
            offset += 5
            tail = _QUESTION_TAIL.unpack_from(data, offset - 4)
        except (IndexError, struct.error):
            raise ParseError("truncated DNS question") from None
        question = cls(b".".join(labels).decode("ascii", "replace"), *tail)
        question.wire = bytes(data[start:offset])
        return question, offset


class DNSWrapper:
    """Decoded view of a DNS message (header + questions + answers)."""

    def __init__(self, data):
        data = bytes(data)
        self.header = DNSHeader.decode(data)
        self.questions = []
        self.answers = []       # (name, qtype, qclass, ttl, rdata)
        offset = HEADER_BYTES
        for _ in range(self.header.qdcount):
            question, offset = DNSQuestion.decode(data, offset)
            self.questions.append(question)
        for _ in range(self.header.ancount):
            name, offset = decode_name(data, offset)
            if offset + 10 > len(data):
                raise ParseError("truncated DNS answer")
            qtype, qclass, ttl, rdlength = \
                _ANSWER_FIXED.unpack_from(data, offset)
            offset += 10
            if offset + rdlength > len(data):
                raise ParseError("truncated DNS rdata")
            self.answers.append(
                (name, qtype, qclass, ttl, bytes(data[offset:offset +
                                                      rdlength])))
            offset += rdlength

    def first_a_record(self):
        """The first A answer as a 32-bit address, or ``None``."""
        for _, qtype, _, _, rdata in self.answers:
            if qtype == QType.A and len(rdata) == 4:
                return int.from_bytes(rdata, "big")
        return None


def build_dns_query(txid, name, qtype=QType.A, recursion_desired=False):
    """Encode a single-question DNS query payload."""
    header = DNSHeader(txid=txid,
                       flags=0x0100 if recursion_desired else 0,
                       qdcount=1)
    return header.encode() + DNSQuestion(name, qtype).encode()


def build_dns_response(txid, question, address=None,
                       rcode=RCode.NO_ERROR, ttl=300):
    """Encode a response to *question* (QR=1, AA/RD/RA clear); an A
    record, naming the question by a pointer, if *address* given."""
    if rcode == RCode.NO_ERROR and address is not None:
        return _HEADER.pack(txid & 0xFFFF, 0x8000, 1, 1, 0, 0) + \
            question.encode() + \
            _A_ANSWER.pack(0xC00C, QType.A, QClass.IN, ttl, 4, address)
    return _HEADER.pack(txid & 0xFFFF, 0x8000 | (rcode & 0xF), 1, 0, 0, 0) \
        + question.encode()
