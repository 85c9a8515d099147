"""The compiled execution spine: one code generator, three drivers.

The netlist :class:`~repro.rtl.simulator.Simulator` is the semantic
reference — two-phase, cycle-accurate, and slow: every cycle it
re-walks each register's full chained-mux next-value network.  This
module compiles a :class:`~repro.kiwi.compiler.CompiledDesign` into
straight-line Python **superblocks** that execute *lanes* — one lane
per request:

* **Structure of arrays** — every live register is a column
  (``r_<name>[lane]``), every per-request memory a list of per-lane
  rows, so a block's straight-line code runs as a tight
  ``for _ln in _lanes`` loop over the requests parked at it.
* **Superblocks** — straight-line ``Goto`` chains fuse into one
  closure, and in *trace* mode the chain also follows the likelier arm
  of each ``Branch`` (the other arm is a per-lane side exit), so one
  dispatch executes a whole request's hot path.
* **Two-phase edges** — every right-hand side is evaluated into a temp
  before any commit, so the clock-edge semantics survive exactly;
  out-of-range reads return 0 and out-of-range writes are dropped,
  like the simulator.
* **Folding and hoisting** — const-only subtrees fold at compile time
  (through the simulator's own ``eval_binop``/``eval_unop``), and
  temps that depend only on constants, uniform latched scalars, or
  shared read-only memories are computed once per dispatch, outside
  the lane loop.

The blocks are the only generated code.  Three drivers run them:
:meth:`CompiledKernel.run` (one lane, a fifteen-line loop),
:meth:`repro.engine.batch.BatchedKernel.run_batch` (N lanes in
lockstep under hazard gating) and
:meth:`repro.engine.pipelined.PipelinedKernel.run_stream` (one lane per
in-flight request, one state per cycle).  Equivalence with the
interpreter is not assumed: it is proven per kernel by
:mod:`repro.verify` (results, final memories, *and* cycle
counts), and the differential suite gates CI.

``opt_level`` threads through naturally: the engine compiles whatever
FSM the Kiwi middle-end emitted, so ``compile_kernel(fn, opt_level=2)``
executes the optimized machine.
"""

import itertools

from repro.errors import EngineError
from repro.kiwi.analysis import (
    mems_read, mems_written, reach_union, stage_intervals, state_roots,
    vars_read, vars_written, walk,
)
from repro.kiwi.builder import MemReadRef, VarRef
from repro.kiwi.fsm import Branch, Goto
from repro.rtl.expr import (
    BinOp, Concat, Const, Mux, Slice, UnOp, _mask, eval_binop, eval_unop,
)

#: Superblock length cap — long enough to swallow every service
#: kernel's reply-construction chain, small enough to bound code size.
MAX_BLOCK_STATES = 16
#: Nesting cap for single-use inlining (Python's parser dislikes
#: pathologically deep conditional expressions).
MAX_INLINE_DEPTH = 24


# -- expression emitter ------------------------------------------------------

_ATOM_PREFIXES = ("_t", "_h", "u_", "v_")


def _is_atom(text):
    """Safe to re-read after register commits / reuse verbatim."""
    if text.lstrip("-").isdigit():
        return True
    return text.startswith(_ATOM_PREFIXES) and text.isidentifier()


class _ExprEmitter:
    """Flattens one state's expression DAGs into straight-line code.

    ``emit`` returns a Python expression string for a node, memoised
    by node identity so shared sub-DAGs are computed once.  Constant
    subtrees fold at compile time (via the same ``eval_binop``/
    ``eval_unop`` the simulator uses, so folds are semantics-preserving
    by construction); single-use subtrees inline (so untaken ``Mux``
    arms are never evaluated); subtrees invariant across lanes hoist
    into the block preamble, outside the lane loop; memory reads route
    to per-lane rows (``pl_<name>``) or shared lists (``m_<name>``)
    per the layout.
    """

    def __init__(self, layout, preamble, hoist_memo, counter,
                 hoist_counter):
        self.layout = layout
        self.preamble = preamble
        self.body = []
        self.memo = {}              # per state: id -> text
        self.consts = {}            # id -> folded int (subset of memo)
        self.uniform = {}           # id -> bool (lane-invariant)
        self.hoist_memo = hoist_memo    # per block: uniform temps
        self.refs = {}
        self.counter = counter
        self.hoist_counter = hoist_counter

    # -- bookkeeping ---------------------------------------------------

    def count_refs(self, roots):
        roots = list(roots)
        for root in roots:
            self.refs[id(root)] = self.refs.get(id(root), 0) + 1
        for node in walk(roots):
            for child in node.children():
                self.refs[id(child)] = self.refs.get(id(child), 0) + 1

    def temp(self, text):
        name = "_t%d" % next(self.counter)
        self.body.append("%s = %s" % (name, text))
        return name

    def hoist(self, text):
        name = "_h%d" % next(self.hoist_counter)
        self.preamble.append("%s = %s" % (name, text))
        return name

    def root(self, expr):
        """Emit *expr* as a phase-1 value: folded constants and temps
        pass through, anything else is pinned into a temp so phase-2
        commits cannot disturb it."""
        text = self.emit(expr)
        if _is_atom(text) and not text.startswith("v_"):
            return text
        return self.temp(text)

    # -- recursive emission --------------------------------------------

    def emit(self, expr, depth=0):
        key = id(expr)
        cached = self.hoist_memo.get(key)
        if cached is not None:
            return cached
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        text = self._compile(expr, depth)
        key_const = key in self.consts
        if not key_const and not isinstance(expr, (Const, VarRef)):
            if self.uniform.get(key):
                # Lane-invariant compound: compute once per dispatch.
                text = self.hoist(text)
                self.hoist_memo[key] = text
                return text
            if self.refs.get(key, 2) > 1 or depth >= MAX_INLINE_DEPTH:
                text = self.temp(text)
            else:
                text = "(%s)" % text
        self.memo[key] = text
        return text

    def _fold(self, expr, value):
        self.consts[id(expr)] = value
        self.uniform[id(expr)] = True
        return repr(value)

    def _const_of(self, expr, text):
        if id(expr) in self.consts:
            return self.consts[id(expr)]
        if isinstance(expr, Const):
            return expr.value
        if text.lstrip("-").isdigit():
            return int(text)
        return None

    def _is_uniform(self, expr):
        return bool(self.uniform.get(id(expr))) \
            or isinstance(expr, Const) \
            or id(expr) in self.consts

    def _compile(self, expr, depth):
        # Operator semantics mirror repro.rtl.expr.eval_binop/eval_unop
        # clause for clause; the operator-table test and the
        # differential suite hold them together.
        layout = self.layout
        if isinstance(expr, Const):
            self.uniform[id(expr)] = True
            return repr(expr.value)
        if isinstance(expr, VarRef):
            name = expr.name
            if name in layout.const_regs:
                return self._fold(expr, layout.const_regs[name])
            if name in layout.uniform_set:
                self.uniform[id(expr)] = True
                return "u_" + name
            return "v_" + name
        if isinstance(expr, MemReadRef):
            return self._compile_memread(expr, depth)
        if isinstance(expr, BinOp):
            return self._compile_binop(expr, depth)
        if isinstance(expr, UnOp):
            operand = self.emit(expr.operand, depth + 1)
            value = self._const_of(expr.operand, operand)
            if value is not None:
                return self._fold(expr, eval_unop(
                    expr.op, value, expr.operand.width, expr.width))
            self.uniform[id(expr)] = self._is_uniform(expr.operand)
            return self._compile_unop_text(expr, operand)
        if isinstance(expr, Mux):
            sel = self.emit(expr.sel, depth + 1)
            sel_value = self._const_of(expr.sel, sel)
            if sel_value is not None:
                arm = expr.if_true if sel_value else expr.if_false
                text = self.emit(arm, depth)
                self.uniform[id(expr)] = self._is_uniform(arm)
                if self._const_of(arm, text) is not None:
                    self.consts[id(expr)] = self._const_of(arm, text)
                return text
            if_true = self.emit(expr.if_true, depth + 1)
            if_false = self.emit(expr.if_false, depth + 1)
            self.uniform[id(expr)] = (
                self._is_uniform(expr.sel)
                and self._is_uniform(expr.if_true)
                and self._is_uniform(expr.if_false))
            return "%s if %s else %s" % (if_true, sel, if_false)
        if isinstance(expr, Slice):
            operand = self.emit(expr.operand, depth + 1)
            value = self._const_of(expr.operand, operand)
            if value is not None:
                return self._fold(
                    expr, (value >> expr.lsb) & _mask(expr.width))
            self.uniform[id(expr)] = self._is_uniform(expr.operand)
            if expr.lsb == 0:
                return "%s & %d" % (operand, _mask(expr.width))
            return "(%s >> %d) & %d" % (operand, expr.lsb,
                                        _mask(expr.width))
        if isinstance(expr, Concat):
            texts = [self.emit(part, depth + 1) for part in expr.parts]
            values = [self._const_of(p, t)
                      for p, t in zip(expr.parts, texts)]
            if all(v is not None for v in values):
                acc = values[0]
                for part, value in zip(expr.parts[1:], values[1:]):
                    acc = (acc << part.width) | value
                return self._fold(expr, acc)
            self.uniform[id(expr)] = all(
                self._is_uniform(p) for p in expr.parts)
            acc = texts[0]
            for part, text in zip(expr.parts[1:], texts[1:]):
                acc = "((%s << %d) | %s)" % (acc, part.width, text)
            return acc
        raise EngineError("cannot compile expression %r" % (expr,))

    def _compile_memread(self, expr, depth):
        layout = self.layout
        depth_words = layout.mem_depths.get(expr.mem_name)
        if depth_words is None:
            raise EngineError("read of unknown memory %r"
                              % expr.mem_name)
        base = ("pl_" + expr.mem_name
                if expr.mem_name in layout.perlane
                else "m_" + expr.mem_name)
        addr = self.emit(expr.addr, depth + 1)
        addr_value = self._const_of(expr.addr, addr)
        if addr_value is not None:
            if addr_value >= depth_words:
                return self._fold(expr, 0)
            # Shared memories the FSM never writes cannot change
            # mid-dispatch, so a constant-address read of one is
            # dispatch-invariant and hoists out of the lane loop.
            self.uniform[id(expr)] = (
                expr.mem_name not in layout.perlane
                and expr.mem_name not in layout.hazard_mems)
            return "%s[%d]" % (base, addr_value)
        self.uniform[id(expr)] = (
            expr.mem_name not in layout.perlane
            and expr.mem_name not in layout.hazard_mems
            and self._is_uniform(expr.addr))
        if (1 << expr.addr.width) <= depth_words:
            # The address cannot express an out-of-range index; skip
            # the guard.
            return "%s[%s]" % (base, addr)
        if not _is_atom(addr):
            addr = self.temp(addr)
            self.memo[id(expr.addr)] = addr
        return "(%s[%s] if %s < %d else 0)" % (base, addr, addr,
                                               depth_words)

    def _compile_binop(self, expr, depth):
        lhs = self.emit(expr.lhs, depth + 1)
        rhs = self.emit(expr.rhs, depth + 1)
        lv = self._const_of(expr.lhs, lhs)
        rv = self._const_of(expr.rhs, rhs)
        if lv is not None and rv is not None:
            return self._fold(expr,
                              eval_binop(expr.op, lv, rv, expr.width))
        self.uniform[id(expr)] = (self._is_uniform(expr.lhs)
                                  and self._is_uniform(expr.rhs))
        op = expr.op
        mask = _mask(expr.width)
        if op in ("+", "-", "*", "<<"):
            return "(%s %s %s) & %d" % (lhs, op, rhs, mask)
        if op in ("&", "|", "^"):
            return "%s %s %s" % (lhs, op, rhs)
        if op == ">>":
            return "%s >> %s" % (lhs, rhs)
        if op in ("/", "%"):
            if not _is_atom(rhs):
                rhs = self.temp(rhs)
                self.memo[id(expr.rhs)] = rhs
            pyop = "//" if op == "/" else "%"
            return ("(((%s %s %s) & %d) if %s else 0)"
                    % (lhs, pyop, rhs, mask, rhs))
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return "(1 if %s %s %s else 0)" % (lhs, op, rhs)
        raise EngineError("cannot compile operator %r" % op)

    def _compile_unop_text(self, expr, operand):
        op = expr.op
        if op == "~":
            return "(~%s) & %d" % (operand, _mask(expr.width))
        if op == "|r":
            return "(1 if %s != 0 else 0)" % operand
        if op == "&r":
            return ("(1 if %s == %d else 0)"
                    % (operand, _mask(expr.operand.width)))
        if op == "^r":
            return "bin(%s).count('1') & 1" % operand
        if op == "!":
            return "(1 if %s == 0 else 0)" % operand
        raise EngineError("cannot compile unary %r" % op)


# -- superblocks -------------------------------------------------------------

class _Block:
    """One compiled superblock: a leader state plus the chain behind
    it.  A block containing *any* hazard state is a hazard block — the
    lockstep driver only runs it under the gate (single lowest lane,
    or a provably gate-ordered lane group), so pure member states
    simply ride along in the same sequential order.

    In *trace* mode the chain also runs through ``Branch`` states: the
    likelier arm (deepest continuation) stays in the block, the other
    becomes a per-lane **side exit** — the lane banks its registers
    and partial cycle count, records its next state, and leaves the
    lane loop.
    """

    __slots__ = ("leader", "states", "size", "hazard", "next_const",
                 "in_reach", "fn", "state_indices", "has_exits",
                 "final_target")

    def __init__(self, leader, states, hazard):
        self.leader = leader
        self.states = states
        self.size = len(states)
        self.hazard = hazard
        self.next_const = None      # int when the block ends in Goto
        self.in_reach = False
        self.fn = None
        self.state_indices = [s.index for s in states]
        self.has_exits = False      # any mid-block Branch side exit
        self.final_target = None    # loop-end target when has_exits


def _trace_score(fsm, state, limit, seen):
    """Greedy depth of the best trace from *state* (bounded)."""
    score = 0
    while (state is not fsm.idle and id(state) not in seen
           and score < limit):
        seen = seen | {id(state)}
        score += 1
        transition = state.transition
        if isinstance(transition, Goto):
            state = transition.target
            continue
        true_score = _trace_score(fsm, transition.if_true,
                                  limit - score, seen)
        false_score = _trace_score(fsm, transition.if_false,
                                   limit - score, seen)
        return score + max(true_score, false_score)
    return score


#: Block-formation modes: superblocks that trace through branches,
#: plain ``Goto`` chains (where the pre-dispatch cycle-budget check and
#: the per-state profile counts are exact), or one state per block
#: (the cycle-by-cycle pipelined driver).
TRACE, CHAIN, STEP = "trace", "chain", "step"


def _chain(fsm, leader, mode):
    """The superblock members starting at *leader*."""
    members = [leader]
    member_ids = {id(leader)}
    cur = leader
    while mode != STEP and len(members) < MAX_BLOCK_STATES:
        transition = cur.transition
        if isinstance(transition, Goto):
            target = transition.target
        elif mode == TRACE:
            limit = min(MAX_BLOCK_STATES - len(members), 8)
            true_score = _trace_score(fsm, transition.if_true, limit,
                                      member_ids)
            false_score = _trace_score(fsm, transition.if_false,
                                       limit, member_ids)
            if true_score == 0 and false_score == 0:
                break
            target = (transition.if_true
                      if true_score >= false_score
                      else transition.if_false)
        else:
            break
        if target is fsm.idle or id(target) in member_ids:
            break
        members.append(target)
        member_ids.add(id(target))
        cur = target
    return members


# -- one compiled layout -----------------------------------------------------

class _Layout:
    """One compilation of the FSM for a fixed classification: which
    memories are per-lane (fully loaded by every lane), which latched
    scalars are uniform across lanes, and how states group into
    blocks.  Layouts are cached per kernel; in practice each call site
    settles on one.  The generated closures bind the *kernel's* own
    register columns, memory rows and shared memories, so every layout
    runs on the same warm state.
    """

    def __init__(self, kernel, perlane, uniform_set, mode):
        fsm = kernel.design.fsm
        self.perlane = perlane
        self.uniform_set = uniform_set
        self.uniform_names = sorted(uniform_set)
        self.mem_depths = kernel._mem_depths
        self.const_regs = kernel._const_regs
        soa_regs = [name for name in kernel._reg_names
                    if name not in self.const_regs
                    and name not in uniform_set]
        self.soa = frozenset(soa_regs)
        # What the drivers need per call, worked out once: every lane
        # column, the ones a lane's own latched parameter lands in, and
        # the result columns (a result no state assigns is a one-entry
        # constant column, flagged False).
        self.soa_cols = [kernel._cols[name] for name in soa_regs]
        self.latched_cols = [(name, kernel._cols[name])
                             for name in kernel._latch_names
                             if name in self.soa]
        self.result_cols = [(col, name in self.soa)
                            for name, col in kernel._results]
        self.hazard_mems = kernel._written_mems - perlane
        entry = fsm.idle.transition.if_true
        self.entry = entry.index
        self.blocks = {}
        if entry is not fsm.idle:
            self._build_blocks(kernel, entry, mode)
        self.source = "\n".join(
            line for block in sorted(self.blocks.values(),
                                     key=lambda b: b.leader.index)
            for line in self._emit_block(kernel, block) + [""])
        namespace = dict(kernel._namespace)
        exec(compile(self.source, "<engine:%s>" % kernel.name, "exec"),
             namespace)
        for block in self.blocks.values():
            block.fn = namespace["_b%d" % block.leader.index]

    def _build_blocks(self, kernel, entry, mode):
        fsm = kernel.design.fsm
        hazard_mems = self.hazard_mems
        worklist = [entry]
        while worklist:
            leader = worklist.pop()
            if leader.index in self.blocks:
                continue
            members = _chain(fsm, leader, mode)
            block = _Block(leader, members, any(
                kernel._touch[m.index] & hazard_mems for m in members))
            # Can a lane parked here still reach a hazard state?
            block.in_reach = bool(
                kernel._touch_reach[leader.index] & hazard_mems)
            self.blocks[leader.index] = block
            for i, state in enumerate(members[:-1]):
                transition = state.transition
                if isinstance(transition, Branch):
                    block.has_exits = True
                    cont = members[i + 1]
                    other = (transition.if_false
                             if transition.if_true is cont
                             else transition.if_true)
                    if other is not fsm.idle:
                        worklist.append(other)
            tail = members[-1].transition
            if isinstance(tail, Goto):
                target = tail.target
                if block.has_exits:
                    block.final_target = target.index
                else:
                    block.next_const = target.index
                if target is not fsm.idle:
                    worklist.append(target)
            else:
                for target in (tail.if_true, tail.if_false):
                    if target is not fsm.idle:
                        worklist.append(target)

    # -- codegen -------------------------------------------------------

    def _emit_block(self, kernel, block):
        reads = set()
        writes = set()
        mems_used = set()
        for state in block.states:
            reads |= kernel._vars_read[state.index] & self.soa
            writes |= set(state.updates) & self.soa
            mems_used |= kernel._touch[state.index]
        loads = sorted(reads)
        stores = sorted(writes)
        preamble = []
        hoist_memo = {}
        counter = itertools.count()
        hoist_counter = itertools.count()
        body = []
        final_next = None
        if block.final_target is not None:
            final_next = "%d" % block.final_target
        assigned = set()              # SoA regs committed so far
        last = len(block.states) - 1
        for i, state in enumerate(block.states):
            emitter = _ExprEmitter(self, preamble, hoist_memo, counter,
                               hoist_counter)
            emitter.count_refs(state_roots(state))
            # Phase 1: every right-hand side into temps/inline text.
            commits = []
            for name in sorted(state.updates):
                commits.append(
                    (name, emitter.root(state.updates[name])))
            mem_writes = []
            for mem_name, addr, data, enable in state.writes:
                mem_writes.append(
                    (mem_name, emitter.root(addr), emitter.root(data),
                     emitter.root(enable)))
            cond = None
            transition = state.transition
            if isinstance(transition, Branch):
                cond = emitter.root(transition.cond)
                if i == last:
                    final_next = "(%d if %s else %d)" % (
                        transition.if_true.index, cond,
                        transition.if_false.index)
            # Phase 2: commit registers, then memory writes (all
            # operands were evaluated in phase 1 — the atomic edge).
            for name, value in commits:
                emitter.body.append("v_%s = %s" % (name, value))
            for mem_name, addr, data, enable in mem_writes:
                emitter.body.extend(self._emit_write(
                    mem_name, addr, data, enable))
            assigned |= set(state.updates) & writes
            if isinstance(transition, Branch) and i < last:
                # Trace side exit: the lane leaves mid-block, banking
                # the registers committed so far and the cycle count
                # of the states it actually executed.
                if transition.if_true is block.states[i + 1]:
                    exit_target = transition.if_false
                    emitter.body.append("if not %s:" % cond)
                else:
                    exit_target = transition.if_true
                    emitter.body.append("if %s:" % cond)
                for name in sorted(assigned):
                    emitter.body.append(
                        "    r_%s[_ln] = v_%s" % (name, name))
                emitter.body.append("    _cyc[_ln] += %d" % (i + 1))
                emitter.body.append(
                    "    _next[_ln] = %d" % exit_target.index)
                emitter.body.append("    continue")
            body.extend(emitter.body)
        # -- assemble the closure -------------------------------------
        binds = []
        for name in sorted(set(loads) | set(stores)):
            binds.append("r_%s=r_%s" % (name, name))
        for name in sorted(mems_used):
            if name in self.perlane:
                binds.append("p_%s=p_%s" % (name, name))
            else:
                binds.append("m_%s=m_%s" % (name, name))
        lines = ["def _b%d(_lanes, _next, _cyc, _u%s):"
                 % (block.leader.index,
                    "".join(", " + b for b in binds))]
        if self.uniform_names:
            targets = ", ".join("u_" + name
                                for name in self.uniform_names)
            if len(self.uniform_names) == 1:
                targets += ","
            lines.append("    %s = _u" % targets)
        for line in preamble:
            lines.append("    " + line)
        lines.append("    for _ln in _lanes:")
        for name in sorted(mems_used & self.perlane):
            lines.append("        pl_%s = p_%s[_ln]" % (name, name))
        for name in loads:
            lines.append("        v_%s = r_%s[_ln]" % (name, name))
        for line in body:
            lines.append("        " + line)
        for name in stores:
            lines.append("        r_%s[_ln] = v_%s" % (name, name))
        lines.append("        _cyc[_ln] += %d" % block.size)
        if final_next is not None:
            lines.append("        _next[_ln] = %s" % final_next)
        return lines

    def _emit_write(self, mem_name, addr, data, enable):
        depth = self.mem_depths.get(mem_name)
        if depth is None:
            raise EngineError("write to unknown memory %r" % mem_name)
        base = ("pl_" + mem_name if mem_name in self.perlane
                else "m_" + mem_name)
        en_const = addr_const = None
        if enable.lstrip("-").isdigit():
            en_const = int(enable)
        if addr.lstrip("-").isdigit():
            addr_const = int(addr)
        if en_const == 0:
            return []
        if addr_const is not None and addr_const >= depth:
            return []
        store = "%s[%s] = %s" % (base, addr, data)
        if en_const is not None and addr_const is not None:
            return [store]
        if en_const is not None:
            return ["if %s < %d:" % (addr, depth), "    " + store]
        if addr_const is not None:
            return ["if %s:" % enable, "    " + store]
        return ["if %s and %s < %d:" % (enable, addr, depth),
                "    " + store]


# -- the kernel --------------------------------------------------------------

class CompiledKernel:
    """A design compiled to superblocks, with warm state.

    Mirrors the warm-simulator calling convention
    (:meth:`~repro.kiwi.compiler.CompiledDesign.run_on`): registers and
    memories persist across calls, :meth:`run` latches the given
    scalars, loads the given memory images (prefix-overwrite, exactly
    like the simulator backdoor), executes until the machine idles,
    and returns ``(results, latency_cycles, self)``.

    The kernel owns every piece of warm state the generated code
    touches: one column per register (lane 0 *is* the warm register
    file; the multi-lane drivers in the subclasses spread it over
    their lanes and fold the last lane back), one list of per-lane
    rows per memory, and the shared memory images.  Images handed in
    may be ``bytes``, ``bytearray`` or lists of ints (masked to the
    memory's width); byte-wide memories are kept in ``bytearray``s, so
    bytes-like images load and commit back as block copies.
    """

    def __init__(self, design):
        self.design = design
        self.spec = design.spec
        self.opt_level = design.opt_level
        module = design.module
        fsm = design.fsm
        self._reg_names = [sig.name[2:] for sig in module.signals.values()
                           if sig.kind == "reg" and
                           sig.name.startswith("v_")]
        self._reg_inits = {name: module.signals["v_" + name].init
                           for name in self._reg_names}
        self._scalar_masks = {name: _mask(param.width) for name, param
                              in design.spec.scalar_params}
        self._mem_widths = {name: mem.width
                            for name, mem in design.spec.memory_params}
        self._mem_depths = {name: mem.depth
                            for name, mem in design.spec.memory_params}
        # -- FSM facts every layout shares ----------------------------
        written = vars_written(fsm)
        self._latch_names = [name for name, _ in design.spec.scalar_params
                             if name in self._reg_inits]
        #: Latched parameters the FSM never overwrites: their register
        #: is the latched input, so lanes that agree on it share one
        #: value per dispatch.
        self._latch_only = frozenset(self._latch_names) - written
        #: Registers nothing ever assigns fold to their reset value.
        self._const_regs = {
            name: init for name, init in self._reg_inits.items()
            if name not in written and name not in self._latch_only}
        count = len(fsm.states)
        self._vars_read = [frozenset()] * count
        self._reads = [frozenset()] * count
        self._writes = [frozenset()] * count
        data_widths = {}
        for state in fsm.states[1:]:             # idle is state 0
            self._vars_read[state.index] = frozenset(vars_read(state))
            self._reads[state.index] = frozenset(mems_read(state))
            self._writes[state.index] = frozenset(mems_written(state))
            for mem_name, _, data, _ in state.writes:
                data_widths[mem_name] = max(data_widths.get(mem_name, 0),
                                            data.width)
        self._touch = [r | w for r, w in zip(self._reads, self._writes)]
        self._touch_reach = reach_union(fsm, self._touch)
        self._written_mems = frozenset().union(*self._writes)
        # Memories that live in ``bytearray``s, shared image and lane
        # rows alike (so loads and commits are block copies): width-8
        # memories whose every write commits a value the codegen
        # already masks to <= 8 bits (bytearray stores C-validate the
        # 0..255 range, which is exactly the width-8 mask).
        self._byte_mems = frozenset(
            name for name, width in self._mem_widths.items()
            if width == 8 and data_widths.get(name, 0) <= 8)
        stages = stage_intervals(fsm)[1]
        #: Most states any entry→idle path executes, or ``None`` when
        #: the FSM has a cycle (then no static latency bound exists).
        self.max_path = None if stages is None else 1 + max(
            (latest for _, latest in stages.values()), default=-1)
        # -- warm state ------------------------------------------------
        self._cols = {name: [init]
                      for name, init in self._reg_inits.items()}
        self._rows = {name: [] for name in module.memories}
        self._mems = {name: bytearray(mem.init)
                      if name in self._byte_mems else list(mem.init)
                      for name, mem in module.memories.items()}
        self._inputs = {name: 0 for name, _ in design.spec.scalar_params}
        self._namespace = {"EngineError": EngineError}
        for prefix, table in (("r_", self._cols), ("p_", self._rows),
                              ("m_", self._mems)):
            for name, value in table.items():
                self._namespace[prefix + name] = value
        self._results = [(name, self._cols[name]) for name in (
            "__result%d" % index
            for index in range(len(design.spec.results)))]
        self._layouts = {}
        #: Per-state cycle counters (index-aligned with
        #: ``design.fsm.states``); ``None`` until
        #: :meth:`enable_profiling`.
        self.state_counts = None
        self.invocations = 0

    @property
    def name(self):
        return self.design.name

    @property
    def source(self):
        """The generated code this kernel runs: every layout compiled
        so far (before the first call, the one a plain :meth:`run`
        would use)."""
        if not self._layouts:
            self._layout(frozenset(), self._latch_only,
                         self._mode(float("inf"))[1])
        return "\n".join("# layout: per-lane %r, uniform %r, %s blocks\n%s"
                         % (sorted(perlane), sorted(uniform), mode,
                            layout.source)
                         for (perlane, uniform, mode), layout
                         in self._layouts.items())

    # -- state access -------------------------------------------------------

    def load_memory(self, name, contents):
        """Overwrite the first ``len(contents)`` words (backdoor load)."""
        self._validate((({}, {name: contents}),))
        width_mask = _mask(self._mem_widths[name])
        mem = self._mems[name]
        for addr, value in enumerate(contents):
            mem[addr] = value & width_mask

    def peek_memory(self, name, addr):
        return self._mems[name][addr]

    def poke_memory(self, name, addr, value):
        self._mems[name][addr] = value & _mask(self._mem_widths[name])

    def memory_image(self, name):
        """A copy of one memory's full contents."""
        return list(self._mems[name])

    def enable_profiling(self):
        """Count one cycle per executed state into :attr:`state_counts`
        (read via :meth:`repro.obs.profiler.KernelProfile.from_kernel`).
        Profiled calls run the untraced layout, whose blocks execute
        every member state for every lane."""
        if self.state_counts is None:
            self.state_counts = [0] * len(self.design.fsm.states)
        return self

    def disable_profiling(self):
        """Back to the uncounted layouts; counters are discarded."""
        self.state_counts = None

    def reset(self):
        """Back to power-on: registers, latched inputs, memory init."""
        for name, init in self._reg_inits.items():
            self._cols[name][:] = [init]
        for name in self._inputs:
            self._inputs[name] = 0
        for name, mem in self.design.module.memories.items():
            self._mems[name][:] = mem.init

    # -- what every driver shares -------------------------------------------

    def _validate(self, jobs):
        """Reject the whole call — unknown scalar, unknown memory, image
        longer than its memory — before any driver mutates anything.
        Returns whether every job loads the same memories, each in
        full: the shape whose images become private per-lane rows
        (anything else prefix-loads the shared memories)."""
        masks = self._scalar_masks.keys()
        depths = self._mem_depths
        loaded = jobs[0][1].keys()
        rows = True
        for scalars, memories in jobs:
            if not scalars.keys() <= masks:
                raise EngineError("kernel %r has no scalar %r" % (
                    self.name, min(scalars.keys() - masks)))
            if memories.keys() != loaded:
                rows = False
            for name, image in memories.items():
                depth = depths.get(name)
                if depth is None:
                    raise EngineError("kernel %r has no memory %r"
                                      % (self.name, name))
                if len(image) != depth:
                    if len(image) > depth:
                        raise EngineError("image longer than memory %r"
                                          % name)
                    rows = False
        return rows

    def _latch(self, jobs):
        """Mask each (validated) job's scalars into the sticky inputs,
        in order — a job that omits a scalar sees the previous job's
        value — and return, per latched register, the column of values
        the jobs' lanes start from."""
        inputs = self._inputs
        masks = self._scalar_masks
        columns = {name: [] for name in self._latch_names}
        for scalars, _ in jobs:
            for name, value in scalars.items():
                inputs[name] = value & masks[name]
            for name, column in columns.items():
                column.append(inputs[name])
        return columns

    def _latch_lane(self, job, lane, layout):
        """One request's idle cycle: latch its parameters into *lane*'s
        registers; returns the values of *layout*'s uniform scalars."""
        inputs = self._inputs
        masks = self._scalar_masks
        for name, value in job[0].items():
            inputs[name] = value & masks[name]
        for name, col in layout.latched_cols:
            col[lane] = inputs[name]
        return tuple([inputs[name] for name in layout.uniform_names])

    def _private_rows(self, name, images):
        """Private, width-masked copies of full-depth *images*, one
        row per lane."""
        if name in self._byte_mems:
            # bytearray() copies AND range-checks 0..255 in one C pass
            # — exactly the width-8 mask — so in-range images skip the
            # Python-level masking scan entirely.
            try:
                return [bytearray(image) for image in images]
            except ValueError:
                pass
        width_mask = _mask(self._mem_widths[name])
        rows = [list(image) for image in images]
        for lane, row in enumerate(rows):
            if row and (max(row) > width_mask or min(row) < 0):
                rows[lane] = [value & width_mask for value in row]
        return rows

    def _timeout(self, max_cycles):
        return EngineError("design %r did not finish in %d cycles"
                           % (self.name, max_cycles))

    def _mode(self, max_cycles):
        """``(checked, mode)`` for a call with this cycle budget.
        *checked*: can a request run out of budget?  An acyclic FSM
        cannot run longer than its longest path, so above that the
        per-lane checks are elided entirely.  *mode*: trace
        superblocks charge a lane the whole block before a side exit
        and run states a lane may not reach, so they are used only
        when neither the cycle budget nor the per-state profile can
        tell."""
        checked = self.max_path is None or max_cycles <= self.max_path
        return checked, (CHAIN if checked or self.state_counts is not None
                         else TRACE)

    def _layout(self, perlane, uniform_set, mode):
        key = (perlane, uniform_set, mode)
        layout = self._layouts.get(key)
        if layout is None:
            layout = self._layouts[key] = _Layout(
                self, perlane, uniform_set, mode)
        return layout

    # -- execution ----------------------------------------------------------

    def run(self, max_cycles=100000, memories=None, **scalars):
        """One invocation on the warm kernel: the one-lane driver.

        Returns ``(results, latency_cycles, self)`` — the same triple
        shape as ``CompiledDesign.run_on``.  Full-depth images become
        lane 0's private rows (committed back afterwards); if any image
        is shorter, all of them prefix-load the shared memories.
        """
        job = (scalars, memories or {})
        return self._run_lane(job, self._validate((job,)), max_cycles)

    def _run_lane(self, job, rows, max_cycles):
        """:meth:`run` on an already validated *job* (*rows*: what
        :meth:`_validate` returned for it)."""
        memories = job[1]
        if rows:
            perlane = frozenset(memories)
            for name, image in memories.items():
                self._rows[name][:] = self._private_rows(name, (image,))
        else:
            perlane = frozenset()
            for name, image in memories.items():
                self.load_memory(name, image)
        checked, mode = self._mode(max_cycles)
        layout = self._layout(perlane, self._latch_only, mode)
        uniform = self._latch_lane(job, 0, layout)
        counts = self.state_counts
        blocks = layout.blocks
        lanes = (0,)
        cyc = [1]
        nxt = [0]
        state = layout.entry
        while state:
            block = blocks[state]
            if checked and cyc[0] > max_cycles - block.size:
                raise self._timeout(max_cycles)
            block.fn(lanes, nxt, cyc, uniform)
            if counts is not None:
                for index in block.state_indices:
                    counts[index] += 1
            state = block.next_const
            if state is None:
                state = nxt[0]
        for name in perlane:
            self._mems[name][:] = self._rows[name][0]
        self.invocations += 1
        return (tuple([col[0] for _, col in self._results]), cyc[0],
                self)


def compile_design(design, batch=None):
    """Compile a :class:`CompiledDesign` into a :class:`CompiledKernel`.

    With *batch* set, returns a
    :class:`~repro.engine.batch.BatchedKernel` instead — the same
    kernel plus ``run_batch``, which executes a job list in lockstep
    (any number of jobs per call; the value is not a width).
    """
    if batch is None:
        return CompiledKernel(design)
    from repro.engine.batch import BatchedKernel
    return BatchedKernel(design)


def compile_kernel(fn, opt_level=0, name=None, level_budget=None,
                   batch=None):
    """Front-to-back: Kiwi-compile *fn* at *opt_level*, then compile the
    resulting (possibly optimized) FSM for the engine.  *batch* selects
    the lockstep driver (see :func:`compile_design`)."""
    from repro.kiwi.compiler import DEFAULT_LEVEL_BUDGET, compile_function
    design = compile_function(
        fn, name=name, opt_level=opt_level,
        level_budget=DEFAULT_LEVEL_BUDGET if level_budget is None
        else level_budget)
    return compile_design(design, batch=batch)
