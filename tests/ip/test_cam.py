"""CAM IP block: behavioural model and netlist agree."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError, WidthError
from repro.ip.cam import BinaryCAM, CamHandshake, RegisterCAM


class TestBehavioural:
    def test_miss_then_learn_then_hit(self):
        cam = BinaryCAM(48, 8, 16)
        cam.lookup(0xAAAA)
        assert not cam.matched
        cam.write(0xAAAA, 3)
        assert cam.lookup(0xAAAA) == 3
        assert cam.matched

    def test_update_in_place(self):
        cam = BinaryCAM(48, 8, 16)
        slot1 = cam.write(0xB, 1)
        slot2 = cam.write(0xB, 2)
        assert slot1 == slot2
        assert cam.lookup(0xB) == 2
        assert cam.occupancy() == 1

    def test_wraparound_eviction_when_full(self):
        cam = BinaryCAM(8, 8, 4)
        for key in range(4):
            cam.write(key, key)
        cam.write(100, 42)            # evicts slot 0 (key 0)
        assert cam.lookup(100) == 42
        cam.lookup(0)
        assert not cam.matched

    def test_invalidate(self):
        cam = BinaryCAM(8, 8, 4)
        cam.write(5, 1)
        assert cam.invalidate(5) is True
        assert cam.invalidate(5) is False
        cam.lookup(5)
        assert not cam.matched

    def test_key_width_enforced(self):
        cam = BinaryCAM(8, 8, 4)
        with pytest.raises(WidthError):
            cam.lookup(0x100)
        with pytest.raises(WidthError):
            cam.write(1, 0x100)

    def test_clear(self):
        cam = BinaryCAM(8, 8, 4)
        cam.write(1, 1)
        cam.clear()
        assert cam.occupancy() == 0


class TestNetlist:
    @pytest.fixture(autouse=True)
    def bind(self, simulators):
        self.simulators = simulators

    def make_sim(self, depth=8):
        cam = BinaryCAM(16, 8, depth)
        return self.simulators(cam.build_netlist())

    def test_miss_by_default(self):
        sim = self.make_sim()
        sim.poke("search_key", 0x1234)
        assert sim.peek("match") == 0

    def test_write_then_match(self):
        sim = self.make_sim()
        sim.poke("write_en", 1)
        sim.poke("write_key", 0x1234)
        sim.poke("write_value", 7)
        sim.step()
        sim.poke("write_en", 0)
        sim.poke("search_key", 0x1234)
        assert sim.peek("match") == 1
        assert sim.peek("value_out") == 7

    def test_update_does_not_allocate(self):
        sim = self.make_sim()
        for value in (7, 9):
            sim.poke("write_en", 1)
            sim.poke("write_key", 0x1234)
            sim.poke("write_value", value)
            sim.step()
        sim.poke("write_en", 0)
        sim.poke("search_key", 0x1234)
        assert sim.peek("value_out") == 9
        # free pointer advanced only once
        assert sim.peek("free_ptr") == 1

    def test_multiple_keys(self):
        sim = self.make_sim()
        for key, value in [(1, 10), (2, 20), (3, 30)]:
            sim.poke("write_en", 1)
            sim.poke("write_key", key)
            sim.poke("write_value", value)
            sim.step()
        sim.poke("write_en", 0)
        for key, value in [(1, 10), (2, 20), (3, 30)]:
            sim.poke("search_key", key)
            assert sim.peek("match") == 1
            assert sim.peek("value_out") == value


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)),
                min_size=1, max_size=12))
def test_property_model_vs_netlist(simulators, writes):
    """The behavioural model and the netlist stay in lock-step."""
    model = BinaryCAM(8, 8, 8)
    sim = simulators(BinaryCAM(8, 8, 8).build_netlist())
    for key, value in writes:
        model.write(key, value)
        sim.poke("write_en", 1)
        sim.poke("write_key", key)
        sim.poke("write_value", value)
        sim.step()
    sim.poke("write_en", 0)
    for key, _ in writes:
        expected = model.lookup(key)
        expected_match = model.matched
        sim.poke("search_key", key)
        assert sim.peek("match") == int(expected_match)
        if expected_match:
            assert sim.peek("value_out") == expected


class TestRegisterCam:
    def test_behaves_like_binary_cam(self):
        cam = RegisterCAM(48, 8, 16)
        cam.write(0xFEED, 9)
        assert cam.lookup(0xFEED) == 9

    def test_netlist_lookup(self, simulators):
        cam = RegisterCAM(16, 8, 4)
        sim = simulators(cam.build_netlist())
        sim.poke("write_en", 1)
        sim.poke("write_slot", 2)
        sim.poke("write_key", 0xBEEF)
        sim.poke("write_value", 5)
        sim.step()
        sim.poke("write_en", 0)
        sim.poke("search_key", 0xBEEF)
        assert sim.peek("match") == 1
        assert sim.peek("value_out") == 5


class TestHandshake:
    def test_request_then_done(self):
        cam = BinaryCAM(8, 8, 4)
        cam.write(9, 3)
        hs = CamHandshake(cam)
        hs.request(9)
        assert not hs.done
        hs.tick()
        assert hs.done
        assert hs.read_result() == 3

    def test_early_read_rejected(self):
        hs = CamHandshake(BinaryCAM(8, 8, 4))
        hs.request(1)
        with pytest.raises(ProtocolError):
            hs.read_result()
