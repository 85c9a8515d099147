"""Netlist modules.

A :class:`Module` owns signals, memories, combinational assignments,
sequential (clocked) assignments, memory write ports and submodule
instances.  There is one implicit clock; reset is modelled by signal
``init`` values, as in the NetFPGA reference designs.

The builder API is deliberately small; both hand-written baselines
(:mod:`repro.baselines`) and the Kiwi code generator
(:mod:`repro.kiwi.codegen`) target it.
"""

from repro.errors import SimulationError, WidthError
from repro.rtl.expr import Expr, MemRead, to_expr
from repro.rtl.signal import Signal


class Memory:
    """A word-addressed memory array (BRAM/LUTRAM in the resource model)."""

    __slots__ = ("name", "width", "depth", "init")

    def __init__(self, name, width, depth, init=None):
        if width <= 0 or depth <= 0:
            raise WidthError("memory %r needs positive width/depth" % name)
        self.name = name
        self.width = width
        self.depth = depth
        self.init = list(init) if init is not None else [0] * depth
        if len(self.init) != depth:
            raise WidthError("memory %r init length mismatch" % name)

    def read(self, addr):
        """Build an asynchronous read expression (LUTRAM-style)."""
        return MemRead(self, addr)

    def __repr__(self):
        return "Memory(%s, %dx%d)" % (self.name, self.depth, self.width)


class MemWrite:
    """A clocked memory write port: ``if (en) mem[addr] <= data``."""

    __slots__ = ("memory", "addr", "data", "enable")

    def __init__(self, memory, addr, data, enable):
        if data.width != memory.width:
            raise WidthError(
                "write data width %d != memory width %d"
                % (data.width, memory.width)
            )
        self.memory = memory
        self.addr = addr
        self.data = data
        self.enable = enable


class Instance:
    """A submodule instantiation with port bindings.

    *connections* maps the child's port names to parent expressions
    (for child inputs) or parent wire signals (for child outputs).
    """

    __slots__ = ("name", "module", "connections")

    def __init__(self, name, module, connections):
        self.name = name
        self.module = module
        self.connections = dict(connections)


class Module:
    """A synthesisable netlist: the unit of compilation and simulation."""

    def __init__(self, name):
        self.name = name
        self.signals = {}
        self.inputs = []
        self.outputs = []
        self.memories = {}
        self.comb_assigns = {}   # Signal -> Expr
        self.sync_assigns = {}   # Signal -> Expr (next-state)
        self.mem_writes = []     # [MemWrite]
        self.instances = []      # [Instance]
        # Free-form attributes the resource estimator understands
        # (e.g. {"cam_cells": 256}) for black-box IP accounting.
        self.attributes = {}

    # -- declaration ------------------------------------------------------

    def _add_signal(self, name, width, kind, init=0):
        if name in self.signals:
            raise WidthError("duplicate signal %r in %s" % (name, self.name))
        sig = Signal(name, width, kind, init)
        self.signals[name] = sig
        return sig

    def input(self, name, width):
        sig = self._add_signal(name, width, "input")
        self.inputs.append(sig)
        return sig

    def output(self, name, width):
        """Declare an output port backed by a wire."""
        sig = self._add_signal(name, width, "wire")
        self.outputs.append(sig)
        return sig

    def wire(self, name, width):
        return self._add_signal(name, width, "wire")

    def reg(self, name, width, init=0):
        return self._add_signal(name, width, "reg", init)

    def memory(self, name, width, depth, init=None):
        if name in self.memories:
            raise WidthError("duplicate memory %r in %s" % (name, self.name))
        mem = Memory("%s.%s" % (self.name, name), width, depth, init)
        self.memories[name] = mem
        return mem

    # -- behaviour --------------------------------------------------------

    def comb(self, target, expr):
        """Continuous assignment ``assign target = expr``."""
        expr = to_expr(expr, target.width)
        if target.kind != "wire":
            raise SimulationError(
                "comb target %r must be a wire, is %s" % (target, target.kind)
            )
        if target in self.comb_assigns:
            raise SimulationError("wire %r has multiple drivers" % target)
        if expr.width != target.width:
            raise WidthError(
                "comb width mismatch on %r: %d vs %d"
                % (target, target.width, expr.width)
            )
        self.comb_assigns[target] = expr

    def sync(self, target, expr):
        """Clocked assignment ``target <= expr`` at every posedge."""
        expr = to_expr(expr, target.width)
        if target.kind != "reg":
            raise SimulationError(
                "sync target %r must be a reg, is %s" % (target, target.kind)
            )
        if target in self.sync_assigns:
            raise SimulationError("reg %r has multiple drivers" % target)
        if expr.width != target.width:
            raise WidthError(
                "sync width mismatch on %r: %d vs %d"
                % (target, target.width, expr.width)
            )
        self.sync_assigns[target] = expr

    def write_port(self, memory, addr, data, enable):
        """Add a clocked write port to *memory*."""
        addr = to_expr(addr, max(1, (memory.depth - 1).bit_length()))
        data = to_expr(data, memory.width)
        enable = to_expr(enable, 1)
        self.mem_writes.append(MemWrite(memory, addr, data, enable))

    def instantiate(self, name, module, **connections):
        """Instantiate *module* as a child named *name*."""
        for port_name in connections:
            if port_name not in module.signals:
                raise WidthError(
                    "module %s has no port %r" % (module.name, port_name)
                )
        inst = Instance(name, module, connections)
        self.instances.append(inst)
        return inst

    # -- introspection ----------------------------------------------------

    def __repr__(self):
        return "Module(%s: %d signals, %d instances)" % (
            self.name, len(self.signals), len(self.instances))


def flatten(module, prefix=""):
    """Flatten a module hierarchy into a single :class:`Module`.

    Child signals are renamed ``<instname>.<signame>``; port bindings
    become combinational aliases.  The result has no instances and is what
    the simulator and resource estimator actually consume.
    """
    flat = Module(module.name if not prefix else prefix.rstrip("."))
    _flatten_into(flat, module, prefix)
    return flat


def _flatten_into(flat, module, prefix):
    rename = {}
    for sig in module.signals.values():
        new = Signal(prefix + sig.name, sig.width, sig.kind, sig.init)
        flat.signals[new.name] = new
        rename[sig] = new
        if not prefix:
            if sig in module.inputs:
                flat.inputs.append(new)
            if sig in module.outputs:
                flat.outputs.append(new)

    mem_rename = {}
    for key, mem in module.memories.items():
        new_mem = Memory(prefix + mem.name, mem.width, mem.depth, mem.init)
        flat.memories[prefix + key] = new_mem
        mem_rename[mem] = new_mem

    rewrite_cache = {}

    def rewrite(expr):
        # Memoised by identity: shared sub-DAGs must stay shared.
        cached = rewrite_cache.get(id(expr))
        if cached is None:
            cached = _rewrite(expr)
            rewrite_cache[id(expr)] = cached
        return cached

    def _rewrite(expr):
        from repro.rtl.expr import (
            BinOp, Concat, Const, MemRead, Mux, Slice, UnOp,
        )
        if isinstance(expr, Signal):
            return rename.get(expr, expr)
        if isinstance(expr, Const):
            return expr
        if isinstance(expr, BinOp):
            node = BinOp.__new__(BinOp)
            node.op = expr.op
            node.lhs = rewrite(expr.lhs)
            node.rhs = rewrite(expr.rhs)
            node.width = expr.width
            return node
        if isinstance(expr, UnOp):
            return UnOp(expr.op, rewrite(expr.operand))
        if isinstance(expr, Mux):
            return Mux(rewrite(expr.sel), rewrite(expr.if_true),
                       rewrite(expr.if_false))
        if isinstance(expr, Slice):
            return Slice(rewrite(expr.operand), expr.msb, expr.lsb)
        if isinstance(expr, Concat):
            return Concat([rewrite(p) for p in expr.parts])
        if isinstance(expr, MemRead):
            return MemRead(mem_rename.get(expr.memory, expr.memory),
                           rewrite(expr.addr))
        raise SimulationError("unknown expression node %r" % (expr,))

    for target, expr in module.comb_assigns.items():
        flat.comb_assigns[rename[target]] = rewrite(expr)
    for target, expr in module.sync_assigns.items():
        flat.sync_assigns[rename[target]] = rewrite(expr)
    for mw in module.mem_writes:
        flat.mem_writes.append(MemWrite(
            mem_rename[mw.memory], rewrite(mw.addr), rewrite(mw.data),
            rewrite(mw.enable)))
    for key, value in module.attributes.items():
        flat.attributes[key] = flat.attributes.get(key, 0) + value \
            if isinstance(value, (int, float)) else value

    for inst in module.instances:
        child_prefix = prefix + inst.name + "."
        _flatten_into(flat, inst.module, child_prefix)
        for port_name, parent_expr in inst.connections.items():
            child_sig = flat.signals[child_prefix + port_name]
            port = inst.module.signals[port_name]
            if port.kind == "input":
                # Parent drives the child's input.
                expr = rewrite(parent_expr) if isinstance(parent_expr, Expr) \
                    else to_expr(parent_expr, child_sig.width)
                # Child input becomes a wire driven by the parent expr.
                alias = Signal(child_sig.name, child_sig.width, "wire")
                flat.signals[alias.name] = alias
                flat.comb_assigns[alias] = expr
                _rebind(flat, child_sig, alias)
            else:
                # Child drives the parent's wire.
                parent_sig = rewrite(parent_expr)
                if not isinstance(parent_sig, Signal):
                    raise SimulationError(
                        "output port %r must bind to a signal" % port_name)
                child_ref = flat.signals[child_prefix + port_name]
                if parent_sig.kind != "wire":
                    raise SimulationError(
                        "output binding %r must be a wire" % parent_sig)
                flat.comb_assigns[parent_sig] = child_ref
    return flat


def _rebind(flat, old_sig, new_sig):
    """Replace references to *old_sig* with *new_sig* in all expressions."""
    swap_cache = {}

    def swap(expr):
        cached = swap_cache.get(id(expr))
        if cached is None:
            cached = _swap(expr)
            swap_cache[id(expr)] = cached
        return cached

    def _swap(expr):
        from repro.rtl.expr import (
            BinOp, Concat, Const, MemRead, Mux, Slice, UnOp,
        )
        if expr is old_sig:
            return new_sig
        if isinstance(expr, (Signal, Const)):
            return expr
        if isinstance(expr, BinOp):
            node = BinOp.__new__(BinOp)
            node.op = expr.op
            node.lhs = swap(expr.lhs)
            node.rhs = swap(expr.rhs)
            node.width = expr.width
            return node
        if isinstance(expr, UnOp):
            return UnOp(expr.op, swap(expr.operand))
        if isinstance(expr, Mux):
            return Mux(swap(expr.sel), swap(expr.if_true),
                       swap(expr.if_false))
        if isinstance(expr, Slice):
            return Slice(swap(expr.operand), expr.msb, expr.lsb)
        if isinstance(expr, Concat):
            return Concat([swap(p) for p in expr.parts])
        if isinstance(expr, MemRead):
            return MemRead(expr.memory, swap(expr.addr))
        return expr

    for target in list(flat.comb_assigns):
        flat.comb_assigns[target] = swap(flat.comb_assigns[target])
    for target in list(flat.sync_assigns):
        flat.sync_assigns[target] = swap(flat.sync_assigns[target])
    for mw in flat.mem_writes:
        mw.addr = swap(mw.addr)
        mw.data = swap(mw.data)
        mw.enable = swap(mw.enable)
