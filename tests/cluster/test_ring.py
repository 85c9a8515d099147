"""The consistent-hash ring: stability, spread, and remap cost."""

import hashlib

import pytest
from hypothesis import given, strategies as st

import strategies
from repro.cluster.ring import HashRing, _mix32, ring_position
from repro.errors import ClusterError
from repro.ip.pearson import pearson_hash

KEYS = [("k%05d" % index).encode() for index in range(1024)]


class TestRingBasics:
    def test_lookup_is_deterministic(self):
        ring = HashRing(["a", "b", "c"])
        again = HashRing(["a", "b", "c"])
        assert [ring.lookup(k) for k in KEYS] == \
            [again.lookup(k) for k in KEYS]

    def test_membership_order_does_not_matter(self):
        forward = HashRing(["a", "b", "c"])
        backward = HashRing(["c", "b", "a"])
        assert [forward.lookup(k) for k in KEYS] == \
            [backward.lookup(k) for k in KEYS]

    def test_every_shard_owns_keys(self):
        ring = HashRing(["s%d" % i for i in range(8)])
        counts = ring.load_counts(KEYS)
        assert len(counts) == 8
        assert all(count > 0 for count in counts.values())

    def test_single_shard_owns_everything(self):
        ring = HashRing(["only"])
        assert ring.load_counts(KEYS) == {"only": 1024}

    def test_empty_ring_rejects_lookup(self):
        with pytest.raises(ClusterError):
            HashRing().lookup(b"key")

    def test_duplicate_shard_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ClusterError):
            ring.add_shard("a")

    def test_remove_unknown_shard_rejected(self):
        with pytest.raises(ClusterError):
            HashRing(["a"]).remove_shard("b")

    def test_position_accepts_str_and_bytes(self):
        assert ring_position("key") == ring_position(b"key")

    @strategies.SETTINGS
    @given(data=st.binary(max_size=64))
    def test_position_is_the_mix_of_four_pearson_lanes(self, data):
        lanes = [pearson_hash(data, seed=lane) for lane in range(4)]
        digest = lanes[0] << 24 | lanes[1] << 16 | lanes[2] << 8 | lanes[3]
        assert ring_position(data) == _mix32(digest)

    def test_vnode_positions_are_the_recorded_ones(self):
        """Every vnode label of a 4-shard ring hashes to the positions
        recorded before the lanes were walked in one pass."""
        labels = ["shard%d#%d" % (shard, vnode)
                  for shard in range(4) for vnode in range(192)]
        positions = " ".join(str(ring_position(label)) for label in labels)
        assert hashlib.sha256(positions.encode()).hexdigest() == \
            "79e4eb7357b8297b3f0047f48605436ebf662dd8bb8e9ff58c04845dd6d4899c"


class TestRingWrap:
    """A key past the highest vnode wraps to the lowest one: the
    circle's clockwise successor of the top is its bottom."""

    SHARDS = ["shard%d" % index for index in range(4)]

    def test_keys_above_the_top_vnode_belong_to_the_lowest(self):
        ring = HashRing(self.SHARDS, vnodes=1)
        by_position = sorted((ring_position("%s#0" % shard), shard)
                             for shard in self.SHARDS)
        # One vnode per shard: the two lowest vnodes are two shards, so
        # wrapping to the wrong one of them is visible.
        assert by_position[0][1] != by_position[1][1]
        top = by_position[-1][0]
        wrapped = [key for key in
                   (("w%05d" % index).encode() for index in range(4096))
                   if ring_position(key) > top]
        assert wrapped
        assert {ring.lookup(key) for key in wrapped} == \
            {by_position[0][1]}


class TestRingQuality:
    @pytest.mark.parametrize("num_shards", [4, 8, 16])
    def test_load_imbalance_bounded(self, num_shards):
        """Virtual nodes keep max/mean load within the §acceptance bound."""
        ring = HashRing(["shard%d" % i for i in range(num_shards)])
        assert ring.imbalance(KEYS) <= 1.35

    def test_removal_only_remaps_departed_keys(self):
        """The consistent-hashing contract: removing one of N shards
        moves exactly the keys the departed shard owned (~1/N), and
        every moved key belonged to it."""
        before = HashRing(["shard%d" % i for i in range(8)])
        after = HashRing(["shard%d" % i for i in range(8)])
        after.remove_shard("shard3")

        stats = before.remap_stats(after, KEYS)
        owned = before.load_counts(KEYS)["shard3"]
        assert stats.moved == owned
        assert stats.fraction < 0.25
        for key in KEYS:
            if before.lookup(key) != after.lookup(key):
                assert before.lookup(key) == "shard3"

    def test_addition_only_steals_keys(self):
        """Adding a shard never moves a key between existing shards."""
        before = HashRing(["shard%d" % i for i in range(8)])
        after = HashRing(["shard%d" % i for i in range(8)])
        after.add_shard("shard8")
        for key in KEYS:
            if before.lookup(key) != after.lookup(key):
                assert after.lookup(key) == "shard8"
