"""FIFO, BRAM/DRAM, TCAM and NaughtyQ blocks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError, WidthError
from repro.ip.bram import BlockRAM, DramModel
from repro.ip.fifo import SyncFIFO
from repro.ip.naughtyq import NaughtyQ
from repro.ip.tcam import TernaryCAM

SEED = "ip-blocks-1"


class TestFifoBehavioural:
    def test_fifo_order(self):
        fifo = SyncFIFO(8, 4)
        for v in (1, 2, 3):
            fifo.push(v)
        assert [fifo.pop() for _ in range(3)] == [1, 2, 3]

    def test_overrun(self):
        fifo = SyncFIFO(8, 2)
        fifo.push(1)
        fifo.push(2)
        with pytest.raises(ProtocolError):
            fifo.push(3)
        assert fifo.try_push(3) is False

    def test_underrun(self):
        fifo = SyncFIFO(8, 2)
        with pytest.raises(ProtocolError):
            fifo.pop()
        assert fifo.try_pop() is None

    def test_flags(self):
        fifo = SyncFIFO(8, 2)
        assert fifo.empty and not fifo.full
        fifo.push(1)
        fifo.push(2)
        assert fifo.full and not fifo.empty
        assert fifo.occupancy == 2


class TestFifoNetlist:
    @pytest.fixture(autouse=True)
    def bind(self, simulators):
        self.simulators = simulators

    def run_ops(self, ops, depth=4):
        sim = self.simulators(SyncFIFO(8, depth).build_netlist())
        popped = []
        for op, value in ops:
            if op == "push":
                sim.poke("push", 1)
                sim.poke("pop", 0)
                sim.poke("data_in", value)
            else:
                if not sim.peek("empty"):
                    popped.append(sim.peek("data_out"))
                sim.poke("push", 0)
                sim.poke("pop", 1)
            sim.step()
        return sim, popped

    def test_push_pop_order(self):
        _, popped = self.run_ops([("push", 5), ("push", 6), ("pop", None),
                                  ("pop", None)])
        assert popped == [5, 6]

    def test_wraparound(self):
        ops = []
        for round_no in range(3):
            ops += [("push", 10 + round_no), ("pop", None)]
        _, popped = self.run_ops(ops, depth=2)
        assert popped == [10, 11, 12]

    def test_full_flag_blocks_push(self):
        sim, _ = self.run_ops([("push", 1), ("push", 2), ("push", 3)],
                              depth=2)
        assert sim.peek("full") == 1

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(["push", "pop"]), max_size=20),
           st.data())
    def test_property_matches_model(self, simulators, ops, data):
        model = SyncFIFO(8, 4)
        sim = simulators(SyncFIFO(8, 4).build_netlist())
        for op in ops:
            if op == "push":
                value = data.draw(st.integers(0, 255))
                model.try_push(value)
                sim.poke("push", 1)
                sim.poke("pop", 0)
                sim.poke("data_in", value)
            else:
                expected = model.try_pop()
                sim.poke("push", 0)
                sim.poke("pop", 1)
                if expected is not None:
                    assert sim.peek("data_out") == expected
            sim.step()
        assert sim.peek("empty") == int(model.empty)
        assert sim.peek("full") == int(model.full)


class TestBram:
    def test_read_write(self):
        ram = BlockRAM(16, 32)
        ram.write(5, 0xBEEF)
        assert ram.read(5) == 0xBEEF

    def test_bounds(self):
        ram = BlockRAM(8, 4)
        with pytest.raises(WidthError):
            ram.read(4)
        with pytest.raises(WidthError):
            ram.write(0, 0x100)

    def test_load_bulk(self):
        ram = BlockRAM(8, 8)
        ram.load([1, 2, 3], base=2)
        assert [ram.read(i) for i in range(2, 5)] == [1, 2, 3]

    def test_netlist_read_latency_one_cycle(self, simulators):
        sim = simulators(BlockRAM(8, 16).build_netlist())
        sim.poke("write_en", 1)
        sim.poke("write_addr", 3)
        sim.poke("write_data", 0x77)
        sim.step()
        sim.poke("write_en", 0)
        sim.poke("read_addr", 3)
        # Registered address: data appears after the edge.
        sim.step()
        assert sim.peek("read_data") == 0x77


class TestDram:
    def test_refresh_adds_latency_periodically(self):
        dram = DramModel(8, 1024)
        latencies = []
        for i in range(DramModel.REFRESH_PERIOD * 2):
            dram.read(i % 1024)
            latencies.append(dram.last_access_latency())
        slow = [l for l in latencies if l > DramModel.BASE_LATENCY_CYCLES]
        assert len(slow) == 2           # one per refresh period

    def test_dram_slower_than_bram(self):
        dram = DramModel(8, 1024)
        dram.read(0)
        assert dram.last_access_latency() > BlockRAM.READ_LATENCY_CYCLES


class TestTcam:
    def test_priority_order(self):
        tcam = TernaryCAM(16, 4, 8)
        tcam.write(1, 0x1200, 0xFF00, 1)      # broader, lower priority
        tcam.write(0, 0x1234, 0xFFFF, 2)      # exact, higher priority
        assert tcam.lookup(0x1234) == 2
        assert tcam.lookup(0x12FF) == 1

    def test_masked_match(self):
        tcam = TernaryCAM(32, 1, 4)
        tcam.write(0, 0x0A000000, 0xFF000000, 1)   # 10.0.0.0/8
        assert tcam.lookup(0x0A01FFFF) == 1
        assert tcam.matched
        tcam.lookup(0x0B000001)
        assert not tcam.matched

    def test_invalidate_slot(self):
        tcam = TernaryCAM(8, 1, 2)
        tcam.write(0, 5, 0xFF, 1)
        tcam.invalidate(0)
        tcam.lookup(5)
        assert not tcam.matched

    def test_netlist_matches_model(self, simulators):
        tcam = TernaryCAM(16, 4, 4)
        tcam.write(0, 0xAB00, 0xFF00, 3)
        netlist = tcam.build_netlist()
        sim = simulators(netlist)
        # Program the netlist cells through the backdoor-equivalent regs.
        sim._values[netlist.signals["key_0"]] = 0xAB00
        sim._values[netlist.signals["mask_0"]] = 0xFF00
        sim._values[netlist.signals["value_0"]] = 3
        sim._values[netlist.signals["valid_0"]] = 1
        sim.poke("search_key", 0xABCD)
        assert sim.peek("match") == 1
        assert sim.peek("value_out") == 3


class TestNaughtyQ:
    def test_enlist_read(self):
        q = NaughtyQ(16, 4)
        idx = q.enlist(0x42)
        assert q.read(idx) == 0x42

    def test_lru_eviction_order(self):
        q = NaughtyQ(16, 2)
        a = q.enlist(1)
        b = q.enlist(2)
        q.back_of_q(a)              # a is now MRU; b is LRU
        q.enlist(3)
        assert q.last_evicted[0] == b

    def test_release_frees_slot(self):
        q = NaughtyQ(16, 1)
        idx = q.enlist(7)
        q.release(idx)
        q.enlist(8)
        assert q.last_evicted is None

    def test_lru_slot_reports_front(self):
        q = NaughtyQ(16, 2)
        a = q.enlist(1)
        q.enlist(2)
        assert q.lru_slot() == a

    def test_netlist_holds_what_the_model_stores(self, simulators):
        """The netlist is the queue's storage (its pointer logic is a
        black box for the resource model): every value the model
        enlists, updates or releases, written through the memory
        backdoor, is still there after each clock edge, read back the
        same from the netlist and from its Verilog text."""
        rng = random.Random("%s/naughtyq" % SEED)
        model = NaughtyQ(16, 4)
        sim = simulators(model.build_netlist())
        for _ in range(64):
            op = rng.choice(["enlist", "update", "release", "read"])
            slot = rng.randrange(model.depth)
            if op == "enlist":
                slot = model.enlist(rng.randrange(1 << 16))
            elif op == "update":
                model.update(slot, rng.randrange(1 << 16))
            elif op == "release":
                model.release(slot)
            else:
                assert sim.peek_memory("values", slot) == model.read(slot)
                continue
            sim.poke_memory("values", slot, model.read(slot))
            sim.step()
        assert [sim.peek_memory("values", i) for i in range(model.depth)] \
            == [model.read(i) for i in range(model.depth)]
        assert (sim.peek("head"), sim.peek("tail"), sim.peek("count")) \
            == (0, 0, 0)
