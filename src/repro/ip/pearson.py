"""Pearson hashing IP block with the seed handshake of Fig. 5.

The paper uses this module in streaming mode: the host program seeds it
byte-by-byte over a two-signal handshake (``init_hash_ready`` /
``init_hash_enable`` plus ``data_in``), then feeds data bytes and reads
the digest.  We reproduce both the hash function and the wire protocol;
:class:`repro.core.hash_wrapper.HashWrapper` re-implements the paper's
C# ``Seed()`` loop on top of it.
"""

from repro.errors import ProtocolError
from repro.rtl import Module, const, mux

# Classic Pearson permutation table (a fixed 0..255 permutation).  Built
# deterministically from a linear-congruential shuffle so no data files
# are needed.
def _build_table():
    table = list(range(256))
    state = 0x9E3779B1
    for i in range(255, 0, -1):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        j = state % (i + 1)
        table[i], table[j] = table[j], table[i]
    return table


PEARSON_TABLE = _build_table()


def pearson_hash(data, seed=0, table=None):
    """Reference software Pearson hash of *data* (bytes) with *seed*."""
    table = table or PEARSON_TABLE
    digest = seed & 0xFF
    for byte in bytes(data):
        digest = table[digest ^ byte]
    return digest


def pearson_hash_wide(data, width=16):
    """Multi-lane Pearson hash producing a *width*-bit digest.

    Standard construction: lane *i* hashes the data with seed *i* and
    contributes one byte of the digest.  Up to four lanes walk the
    data once, each digest held in its own local.
    """
    lanes = (width + 7) // 8
    mask = (1 << width) - 1
    if lanes > 4:
        return int.from_bytes(bytes(pearson_hash(data, seed=lane)
                                    for lane in range(lanes)), "big") & mask
    table = PEARSON_TABLE
    lane0, lane1, lane2, lane3 = 0, 1, 2, 3
    for byte in bytes(data):
        lane0 = table[lane0 ^ byte]
        lane1 = table[lane1 ^ byte]
        lane2 = table[lane2 ^ byte]
        lane3 = table[lane3 ^ byte]
    digest = lane0 << 24 | lane1 << 16 | lane2 << 8 | lane3
    return (digest >> (32 - 8 * lanes)) & mask


class PearsonHash:
    """Cycle-level model of the streaming hash core (Fig. 5 protocol).

    Wire protocol (one transaction per clock edge, via :meth:`tick`):

    * ``init_hash_ready`` (output) — core is busy absorbing a byte.
    * ``init_hash_enable`` (input) — caller presents ``data_in``.
    * ``data_in`` (input, 8 bits) — next byte.

    The caller asserts *enable* while *ready* is low; the core raises
    *ready* for one cycle while it absorbs, then drops it.
    """

    ABSORB_CYCLES = 1

    def __init__(self):
        self.init_hash_ready = False
        self.init_hash_enable = False
        self.data_in = 0
        self._digest = 0
        self._absorbing = 0
        self._pending_byte = None

    def tick(self):
        """Advance one clock edge."""
        if self._absorbing:
            self._absorbing -= 1
            if self._absorbing == 0:
                self._digest = PEARSON_TABLE[
                    self._digest ^ (self._pending_byte & 0xFF)]
                self.init_hash_ready = False
                self._pending_byte = None
            return
        if self.init_hash_enable:
            if self.init_hash_ready:
                raise ProtocolError(
                    "enable asserted while hash core still busy")
            self._pending_byte = self.data_in
            self.init_hash_ready = True
            self._absorbing = self.ABSORB_CYCLES

    @property
    def digest(self):
        return self._digest

    def reset(self):
        self.__init__()

    # -- netlist ----------------------------------------------------------

    def build_netlist(self, name="pearson"):
        m = Module(name)
        enable = m.input("init_hash_enable", 1)
        data_in = m.input("data_in", 8)
        ready = m.output("init_hash_ready", 1)
        digest_out = m.output("digest", 8)

        table = m.memory("table", 8, 256, init=PEARSON_TABLE)
        digest = m.reg("digest_reg", 8)
        busy = m.reg("busy", 1)

        absorb = enable & ~busy
        next_digest = table.read(digest ^ data_in)
        m.sync(digest, mux(absorb, next_digest, digest))
        m.sync(busy, mux(absorb, const(1, 1), const(0, 1)))
        m.comb(ready, busy)
        m.comb(digest_out, digest)
        m.attributes["is_ip_block"] = True
        return m
