"""Synchronous FIFO.

The output-queue stage of the NetFPGA reference pipeline (Fig. 10) is a
bank of these; the input arbiter also uses one per port.
"""

from repro.errors import ProtocolError, WidthError
from repro.rtl import Module, const, mux


class SyncFIFO:
    """Behavioural model + netlist of a single-clock FIFO."""

    def __init__(self, width, depth):
        if depth <= 0:
            raise WidthError("FIFO depth must be positive")
        self.width = width
        self.depth = depth
        self._items = []

    # -- behavioural ------------------------------------------------------

    def push(self, value):
        """Enqueue; raises :class:`ProtocolError` when full (overrun)."""
        if self.full:
            raise ProtocolError("FIFO overrun (depth %d)" % self.depth)
        self._items.append(value)

    def pop(self):
        """Dequeue; raises :class:`ProtocolError` when empty (underrun)."""
        if self.empty:
            raise ProtocolError("FIFO underrun")
        return self._items.pop(0)

    def try_push(self, value):
        if len(self._items) >= self.depth:
            return False
        self._items.append(value)
        return True

    def try_pop(self):
        if self.empty:
            return None
        return self._items.pop(0)

    def peek(self):
        if self.empty:
            raise ProtocolError("FIFO peek on empty")
        return self._items[0]

    @property
    def empty(self):
        return not self._items

    @property
    def full(self):
        return len(self._items) >= self.depth

    @property
    def occupancy(self):
        return len(self._items)

    def clear(self):
        self._items = []

    # -- netlist ----------------------------------------------------------

    def build_netlist(self, name="fifo"):
        """Classic circular-buffer FIFO with registered pointers."""
        m = Module(name)
        ptr_bits = max(1, self.depth.bit_length())
        push = m.input("push", 1)
        pop = m.input("pop", 1)
        data_in = m.input("data_in", self.width)
        data_out = m.output("data_out", self.width)
        empty = m.output("empty", 1)
        full = m.output("full", 1)

        storage = m.memory("storage", self.width, self.depth)
        head = m.reg("head", ptr_bits)
        tail = m.reg("tail", ptr_bits)
        count = m.reg("count", ptr_bits)

        is_empty = count.eq(const(0, ptr_bits))
        is_full = count.eq(const(self.depth, ptr_bits))
        do_push = push & ~is_full
        do_pop = pop & ~is_empty

        def bump(ptr):
            wrapped = ptr.eq(const(self.depth - 1, ptr_bits))
            return mux(wrapped, const(0, ptr_bits),
                       ptr + const(1, ptr_bits))

        m.sync(tail, mux(do_push, bump(tail), tail))
        m.sync(head, mux(do_pop, bump(head), head))
        delta_up = count + const(1, ptr_bits)
        delta_down = count - const(1, ptr_bits)
        m.sync(count, mux(do_push & ~do_pop, delta_up,
                          mux(do_pop & ~do_push, delta_down, count)))
        m.write_port(storage, tail, data_in, do_push)
        m.comb(data_out, storage.read(head))
        m.comb(empty, is_empty)
        m.comb(full, is_full)
        return m
