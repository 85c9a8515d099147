"""Two-phase cycle-accurate netlist simulator.

Semantics match a synchronous Verilog simulation with a single clock:

1. *Settle* phase — evaluate every combinational assignment in
   topological order (a combinational loop is an error, as it would be
   for synthesis).
2. *Clock edge* — compute all register next-states and memory writes from
   the settled values, then commit them atomically.

Inputs are poked between cycles with :meth:`Simulator.poke`; outputs and
internal nets are read with :meth:`Simulator.peek`.
"""

from repro.errors import SimulationError, SimulationTimeout, WidthError
from repro.rtl.expr import (
    BinOp, Concat, Const, MemRead, Mux, Slice, UnOp, _mask, eval_binop,
    eval_unop,
)
from repro.rtl.module import flatten
from repro.rtl.signal import Signal


class Simulator:
    """Cycle simulator for a (possibly hierarchical) :class:`Module`."""

    def __init__(self, module):
        self.module = flatten(module) if module.instances else module
        self._values = {}
        self._mems = {}
        for sig in self.module.signals.values():
            self._values[sig] = sig.init if sig.kind == "reg" else 0
        for mem in self.module.memories.values():
            self._mems[mem] = list(mem.init)
        self._order = self._schedule()
        self.cycle = 0
        self._settled = False
        # Per-settle-pass memo of expression values, keyed by node
        # identity.  Expressions are shared DAGs; without the memo one
        # settle pass can re-evaluate a node exponentially often.
        self._memo = {}

    # -- combinational scheduling ----------------------------------------

    def _schedule(self):
        """Topologically sort comb assignments by wire→wire dependency."""
        assigns = self.module.comb_assigns
        deps = {}
        for target, expr in assigns.items():
            deps[target] = {
                s for s in expr.signals()
                if s.kind == "wire" and s in assigns
            }
        order = []
        ready = [t for t, d in deps.items() if not d]
        remaining = {t: set(d) for t, d in deps.items() if d}
        dependants = {}
        for target, d in remaining.items():
            for dep in d:
                dependants.setdefault(dep, []).append(target)
        while ready:
            target = ready.pop()
            order.append(target)
            for user in dependants.get(target, ()):  # wires waiting on us
                pending = remaining.get(user)
                if pending is None:
                    continue
                pending.discard(target)
                if not pending:
                    del remaining[user]
                    ready.append(user)
        if remaining:
            names = ", ".join(sorted(t.name for t in remaining))
            raise SimulationError("combinational loop through: %s" % names)
        return order

    # -- expression evaluation -------------------------------------------

    def _eval(self, expr):
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Signal):
            return self._values[expr]
        memo = self._memo
        key = id(expr)
        cached = memo.get(key)
        if cached is not None:
            return cached
        value = self._eval_inner(expr)
        memo[key] = value
        return value

    def _eval_inner(self, expr):
        # Operator arithmetic is shared with the optimizer's constant
        # folder (repro.rtl.expr.eval_binop/eval_unop): one source of
        # truth, so folding can never diverge from simulation.
        if isinstance(expr, BinOp):
            lhs = self._eval(expr.lhs)
            rhs = self._eval(expr.rhs)
            try:
                return eval_binop(expr.op, lhs, rhs, expr.width)
            except WidthError:
                raise SimulationError("unknown operator %r" % expr.op)
        if isinstance(expr, UnOp):
            value = self._eval(expr.operand)
            try:
                return eval_unop(expr.op, value, expr.operand.width,
                                 expr.width)
            except WidthError:
                raise SimulationError("unknown unary %r" % expr.op)
        if isinstance(expr, Mux):
            return self._eval(expr.if_true) if self._eval(expr.sel) \
                else self._eval(expr.if_false)
        if isinstance(expr, Slice):
            value = self._eval(expr.operand)
            return (value >> expr.lsb) & _mask(expr.width)
        if isinstance(expr, Concat):
            value = 0
            for part in expr.parts:
                value = (value << part.width) | self._eval(part)
            return value
        if isinstance(expr, MemRead):
            addr = self._eval(expr.addr)
            array = self._mems[expr.memory]
            return array[addr] if addr < len(array) else 0
        raise SimulationError("cannot evaluate %r" % (expr,))

    # -- public API --------------------------------------------------------

    def poke(self, signal, value):
        """Drive an input signal for the current cycle."""
        if isinstance(signal, str):
            signal = self.module.signals[signal]
        if signal.kind != "input":
            raise SimulationError("can only poke inputs, not %r" % signal)
        self._values[signal] = value & _mask(signal.width)
        self._settled = False

    def peek(self, signal):
        """Read any signal's settled value."""
        if isinstance(signal, str):
            signal = self.module.signals[signal]
        if not self._settled:
            self.settle()
        return self._values[signal]

    def peek_memory(self, memory, addr):
        """Read a memory word directly (test/debug backdoor)."""
        if isinstance(memory, str):
            memory = self.module.memories[memory]
        return self._mems[memory][addr]

    def poke_memory(self, memory, addr, value):
        """Write a memory word directly (test/debug backdoor)."""
        if isinstance(memory, str):
            memory = self.module.memories[memory]
        self._mems[memory][addr] = value & _mask(memory.width)

    def settle(self):
        """Propagate combinational logic for the current inputs."""
        self._memo.clear()
        for target in self._order:
            self._values[target] = self._eval(
                self.module.comb_assigns[target])
        self._settled = True

    def step(self, cycles=1):
        """Advance *cycles* clock edges."""
        for _ in range(cycles):
            if not self._settled:
                self.settle()
            next_regs = {
                reg: self._eval(expr)
                for reg, expr in self.module.sync_assigns.items()
            }
            mem_updates = []
            for mw in self.module.mem_writes:
                if self._eval(mw.enable):
                    addr = self._eval(mw.addr)
                    if addr < mw.memory.depth:
                        mem_updates.append(
                            (mw.memory, addr, self._eval(mw.data)))
            for reg, value in next_regs.items():
                self._values[reg] = value
            for memory, addr, value in mem_updates:
                self._mems[memory][addr] = value
            self.cycle += 1
            self._settled = False
        self.settle()

    def run_until(self, signal, value=1, max_cycles=10000):
        """Step until *signal* equals *value*; return cycles taken.

        Raises :class:`~repro.errors.SimulationTimeout` — naming the
        signal, the cycles spent, and the value it was stuck at — if
        *max_cycles* clock edges pass without a match.
        """
        if isinstance(signal, str):
            try:
                signal = self.module.signals[signal]
            except KeyError:
                raise SimulationError(
                    "module %s has no signal %r"
                    % (self.module.name, signal))
        start = self.cycle
        while self.peek(signal) != value:
            if self.cycle - start >= max_cycles:
                raise SimulationTimeout(
                    signal.name, value, self.cycle - start,
                    self.peek(signal))
            self.step()
        return self.cycle - start
