"""Consistent-hash shard ring with virtual nodes.

Scaling *out* (many devices) rather than *up* (more cores in one
device, §5.4) needs a stable key → shard mapping that survives shard
arrival and departure: a consistent-hash ring.  Each shard owns many
*virtual nodes* — pseudo-random positions on a 32-bit circle — and a
key belongs to the first virtual node clockwise from its own position.
Removing a shard only reassigns the keys it owned (~1/N of the space);
every other key keeps its shard, which is what makes live rebalancing
cheap.

Positions come from the Pearson construction of Fig. 5's hash core
(:mod:`repro.ip.pearson`), finished with a 32-bit
avalanche mix: the raw multi-lane Pearson digest correlates across
inputs that differ in one byte (exactly what ``shard3#41`` vs
``shard3#42`` labels do), and the mix restores uniform vnode spread.
"""

import bisect

from repro.errors import ClusterError
from repro.ip.pearson import pearson_hash_wide

#: Default virtual nodes per shard.  Chosen empirically: keeps the
#: max/mean shard-load imbalance under ~1.3 for 4-16 shards on the
#: memaslap key distribution (see tests/cluster/test_ring.py).
DEFAULT_VNODES = 192

RING_BITS = 32
RING_SIZE = 1 << RING_BITS


def _mix32(value):
    """32-bit avalanche finisher (MurmurHash3-style)."""
    value &= 0xFFFFFFFF
    value ^= value >> 16
    value = (value * 0x85EBCA6B) & 0xFFFFFFFF
    value ^= value >> 13
    value = (value * 0xC2B2AE35) & 0xFFFFFFFF
    value ^= value >> 16
    return value


def ring_position(data):
    """Map bytes (or str) to a position on the 32-bit hash circle."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return _mix32(pearson_hash_wide(data, width=RING_BITS))


def max_over_mean(counts):
    """Max/mean load imbalance over per-shard *counts* (1.0 = even).

    The shared imbalance metric for the ring and the cluster target.
    """
    counts = list(counts)
    if not counts:
        raise ClusterError("no shards to measure imbalance over")
    mean = sum(counts) / len(counts)
    if mean == 0:
        return 1.0
    return max(counts) / mean


class RemapStats:
    """What a ring change did to a sample of keys."""

    def __init__(self, moved, total):
        self.moved = moved
        self.total = total

    @property
    def fraction(self):
        return self.moved / self.total if self.total else 0.0

    def __repr__(self):
        return "RemapStats(moved=%d/%d, %.1f%%)" % (
            self.moved, self.total, 100.0 * self.fraction)


class HashRing:
    """Consistent-hash ring mapping keys to shard ids.

    Shard ids are arbitrary hashable labels (strings or ints); keys are
    bytes.  ``vnodes`` virtual nodes per shard smooth the load.
    """

    def __init__(self, shards=(), vnodes=DEFAULT_VNODES):
        if vnodes < 1:
            raise ClusterError("need at least one virtual node per shard")
        self.vnodes = vnodes
        self._ring = []            # sorted [(position, shard_id)]
        self._positions = []       # positions only (for bisect)
        self._shards = set()
        for shard in shards:
            self.add_shard(shard)

    # -- membership ---------------------------------------------------------

    def add_shard(self, shard_id):
        """Insert a shard's virtual nodes into the ring."""
        if shard_id in self._shards:
            raise ClusterError("shard %r already in ring" % (shard_id,))
        self._shards.add(shard_id)
        for index in range(self.vnodes):
            position = ring_position("%s#%d" % (shard_id, index))
            entry = (position, shard_id)
            at = bisect.bisect_left(self._ring, entry)
            self._ring.insert(at, entry)
            self._positions.insert(at, position)

    def remove_shard(self, shard_id):
        """Remove a shard; its keys fall to the clockwise successors."""
        if shard_id not in self._shards:
            raise ClusterError("shard %r not in ring" % (shard_id,))
        self._shards.discard(shard_id)
        kept = [(pos, sid) for pos, sid in self._ring if sid != shard_id]
        self._ring = kept
        self._positions = [pos for pos, _ in kept]

    @property
    def shards(self):
        return sorted(self._shards, key=str)

    # -- lookup -------------------------------------------------------------

    def lookup(self, key):
        """Shard id owning *key* (bytes or str)."""
        if not self._ring:
            raise ClusterError("ring is empty")
        index = bisect.bisect_right(self._positions, ring_position(key))
        if index == len(self._ring):
            index = 0              # wrap past the top of the circle
        return self._ring[index][1]

    def assignments(self, keys):
        """``{key: shard_id}`` for every key in *keys*."""
        return {key: self.lookup(key) for key in keys}

    # -- statistics ---------------------------------------------------------

    def load_counts(self, keys):
        """Keys owned per shard (shards owning none included as 0)."""
        counts = {shard: 0 for shard in self._shards}
        for key in keys:
            counts[self.lookup(key)] += 1
        return counts

    def imbalance(self, keys):
        """Max/mean shard load over *keys* (1.0 = perfectly even)."""
        return max_over_mean(self.load_counts(keys).values())

    def remap_stats(self, other, keys):
        """How many of *keys* map differently on ring *other*."""
        keys = list(keys)
        moved = sum(1 for key in keys
                    if self.lookup(key) != other.lookup(key))
        return RemapStats(moved, len(keys))
