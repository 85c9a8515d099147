"""The scheduler: walks the kernel AST and builds the FSM.

Scheduling policy (paper §3.4): all computation between two
``pause()`` barriers is chained combinationally into a single cycle;
control flow that cannot be if-converted (loops, pauses inside branches,
returns) introduces states.  This is Kiwi's model — ``Kiwi.Pause()``
"breaks up computation and allows Kiwi to schedule a suitable amount of
computation in a single clock cycle".
"""

import ast

from repro.errors import CompileError, ScheduleError
from repro.kiwi.frontend import (
    DEFAULT_WIDTH, MemSpec, ScalarSpec, _annotation_text,
    body_contains_barrier, parse_spec,
)
from repro.kiwi.fsm import Branch, Fsm, Goto
from repro.rtl.expr import BinOp, Concat, Const, Expr, MemRead, Mux, Slice, \
    UnOp

_BINOPS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.BitAnd: "&",
    ast.BitOr: "|", ast.BitXor: "^", ast.LShift: "<<", ast.RShift: ">>",
    ast.FloorDiv: "/", ast.Mod: "%",
}

_COMPARES = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=",
}


class _Negative(Const):
    """A negated literal: two's complement at its own width."""
    __slots__ = ()


def _signed(const):
    """A constant's Python value: negative for a negated literal."""
    return const.value - (isinstance(const, _Negative) << const.width)


def zext(expr, width):
    """Truncate or zero-extend to *width*; a negative literal sign-extends."""
    if expr.width == width:
        return expr
    if expr.width > width:
        return Slice(expr, width - 1, 0)
    if isinstance(expr, Const):
        return Const(_signed(expr), width)
    return Concat([Const(0, width - expr.width), expr])


def match_widths(lhs, rhs):
    """Make two expressions the same width by extension.  A constant
    takes the other side's width when it fits and otherwise keeps its
    own bit length, widening the other side (C#'s promotion): it is
    never truncated, and a negative literal is sign-extended."""
    if isinstance(lhs, Const) and not isinstance(rhs, Const):
        lhs = Const(_signed(lhs), max(rhs.width, lhs.value.bit_length()))
    elif isinstance(rhs, Const) and not isinstance(lhs, Const):
        rhs = Const(_signed(rhs), max(lhs.width, rhs.value.bit_length()))
    width = max(lhs.width, rhs.width)
    return zext(lhs, width), zext(rhs, width)


def as_bool(expr):
    """Coerce an expression to 1 bit (non-zero test)."""
    if expr.width == 1:
        return expr
    return UnOp("|r", expr)


class LoopContext:
    """Targets for ``continue`` (header) and ``break`` (exit)."""

    __slots__ = ("header", "exit")

    def __init__(self, header, exit_state):
        self.header = header
        self.exit = exit_state


class FsmBuilder:
    """Builds an :class:`~repro.kiwi.fsm.Fsm` from a kernel body."""

    def __init__(self, spec):
        self.spec = spec
        self.fsm = Fsm()
        self.var_widths = {}        # name -> bit width (registers)
        self.memories = {}          # name -> MemSpec
        self.const_env = {}         # unrolled loop variables
        for name, param in spec.params:
            if isinstance(param, MemSpec):
                self.memories[name] = param
            else:
                self.var_widths[name] = param.width
        self.result_names = []
        for index, result in enumerate(spec.results):
            name = "__result%d" % index
            self.var_widths[name] = result.width
            self.result_names.append(name)
        self._loops = []
        self._current = None
        self._env = {}
        self._guard = None

    # -- public -----------------------------------------------------------

    def build(self):
        entry = self.fsm.new_state("entry", pinned=True)
        self._open(entry)
        terminated = self._walk_body(self.spec.body)
        if not terminated:
            self._close(Goto(self.fsm.idle))
        # Idle latches nothing here; parameter latching is added by
        # codegen (it needs the input signals).
        self.fsm.idle.transition = Branch("__start__", entry, self.fsm.idle)
        return self.fsm.seal()

    # -- state plumbing -----------------------------------------------------

    def _open(self, state):
        self._current = state
        self._env = {}
        self._guard = None

    def _close(self, transition):
        """Commit the env into the current state and set its transition."""
        state = self._current
        for name, expr in self._env.items():
            state.updates[name] = expr
        state.transition = transition
        self._current = None
        self._env = {}

    def _var_read(self, name, node=None):
        if name in self.const_env:
            return self.const_env[name]
        if name in self._env:
            return self._env[name]
        if name in self.var_widths:
            return VarRef(name, self.var_widths[name])
        raise CompileError("read of undefined variable %r" % name, node)

    def _assign(self, name, expr, node=None):
        if name in self.const_env:
            raise CompileError(
                "cannot assign to unrolled loop variable %r" % name, node)
        width = self.var_widths.get(name)
        if width is None:
            # Un-annotated locals default to the C# word width (the
            # paper's largest primitive), like Kiwi's ulong locals.
            width = max(DEFAULT_WIDTH, expr.width)
            self.var_widths[name] = width
        expr = zext(expr, width)
        if self._guard is not None:
            expr = Mux(self._guard, expr, self._var_read(name))
        self._env[name] = expr

    # -- statement walking ---------------------------------------------------

    def _walk_body(self, stmts):
        """Walk statements; returns True if control definitely left."""
        for index, stmt in enumerate(stmts):
            if self._walk_stmt(stmt):
                return True
        return False

    def _walk_stmt(self, stmt):
        if isinstance(stmt, ast.Pass):
            return False
        if isinstance(stmt, ast.Expr):
            return self._walk_expr_stmt(stmt)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._walk_assign(stmt)
            return False
        if isinstance(stmt, ast.If):
            return self._walk_if(stmt)
        if isinstance(stmt, ast.While):
            return self._walk_while(stmt)
        if isinstance(stmt, ast.For):
            return self._walk_for(stmt)
        if isinstance(stmt, ast.Return):
            self._walk_return(stmt)
            return True
        if isinstance(stmt, ast.Break):
            if not self._loops:
                raise CompileError("break outside loop", stmt)
            self._close(Goto(self._loops[-1].exit))
            return True
        if isinstance(stmt, ast.Continue):
            if not self._loops:
                raise CompileError("continue outside loop", stmt)
            self._close(Goto(self._loops[-1].header))
            return True
        raise CompileError(
            "unsupported statement %s" % type(stmt).__name__, stmt)

    def _walk_expr_stmt(self, stmt):
        value = stmt.value
        if isinstance(value, ast.Call) and \
                isinstance(value.func, ast.Name) and \
                value.func.id == "pause":
            if self._guard is not None:
                raise CompileError(
                    "pause() inside a combinational branch; restructure "
                    "so the branch is barrier-free or fully stateful",
                    stmt)
            nxt = self.fsm.new_state("pause", pinned=True)
            self._close(Goto(nxt))
            self._open(nxt)
            return False
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return False                  # docstring
        raise CompileError("unsupported expression statement", stmt)

    def _walk_assign(self, stmt):
        if isinstance(stmt, ast.AugAssign):
            target = stmt.target
            if not isinstance(target, ast.Name):
                raise CompileError("augmented assign needs a name", stmt)
            op = _BINOPS.get(type(stmt.op))
            if op is None:
                raise CompileError("unsupported augmented op", stmt)
            current = self._var_read(target.id, stmt)
            rhs = self._eval(stmt.value)
            lhs, rhs = match_widths(current, rhs)
            self._assign(target.id, BinOp(op, lhs, rhs), stmt)
            return
        if isinstance(stmt, ast.AnnAssign):
            if not isinstance(stmt.target, ast.Name):
                raise CompileError("annotated assign needs a name", stmt)
            spec = parse_spec(_annotation_text(stmt.annotation))
            if not isinstance(spec, ScalarSpec):
                raise CompileError("locals must be scalars", stmt)
            name = stmt.target.id
            if name in self.var_widths and \
                    self.var_widths[name] != spec.width:
                raise CompileError(
                    "conflicting width for %r" % name, stmt)
            self.var_widths[name] = spec.width
            if stmt.value is not None:
                self._assign(name, self._eval(stmt.value), stmt)
            return
        if len(stmt.targets) != 1:
            raise CompileError("chained assignment unsupported", stmt)
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            self._assign(target.id, self._eval(stmt.value), stmt)
            return
        if isinstance(target, ast.Subscript):
            self._walk_mem_write(target, stmt.value, stmt)
            return
        raise CompileError("unsupported assignment target", stmt)

    def _walk_mem_write(self, target, value_node, stmt):
        if not isinstance(target.value, ast.Name) or \
                target.value.id not in self.memories:
            raise CompileError("subscript target must be a memory", stmt)
        mem_name = target.value.id
        mem = self.memories[mem_name]
        addr = zext(self._eval(_subscript_index(target)), mem.addr_bits)
        data = zext(self._eval(value_node), mem.width)
        enable = self._guard if self._guard is not None else Const(1, 1)
        self._current.writes.append((mem_name, addr, data, enable))

    def _walk_if(self, stmt):
        cond = as_bool(self._eval(stmt.test))
        if not body_contains_barrier(stmt.body) and \
                not body_contains_barrier(stmt.orelse):
            self._walk_comb_if(cond, stmt)
            return False
        return self._walk_stateful_if(cond, stmt)

    def _walk_comb_if(self, cond, stmt):
        """If-conversion: both arms merge through muxes, same cycle."""
        saved_env = dict(self._env)
        saved_guard = self._guard

        self._guard = cond if saved_guard is None else \
            BinOp("&", saved_guard, cond)
        self._walk_body(stmt.body)
        then_env = self._env

        self._env = dict(saved_env)
        not_cond = UnOp("!", cond)
        self._guard = not_cond if saved_guard is None else \
            BinOp("&", saved_guard, not_cond)
        self._walk_body(stmt.orelse)
        else_env = self._env

        merged = dict(saved_env)
        for name in set(then_env) | set(else_env):
            then_val = then_env.get(name)
            else_val = else_env.get(name)
            if then_val is None:
                then_val = saved_env.get(name)
            if else_val is None:
                else_val = saved_env.get(name)
            if then_val is None:
                then_val = self._var_read_safe(name, stmt)
            if else_val is None:
                else_val = self._var_read_safe(name, stmt)
            if then_val is else_val:
                merged[name] = then_val
            else:
                then_val, else_val = match_widths(then_val, else_val)
                merged[name] = Mux(cond, then_val, else_val)
        self._env = merged
        self._guard = saved_guard

    def _var_read_safe(self, name, node):
        """Variable's pre-branch value; may be first defined in a branch."""
        if name in self.var_widths:
            return VarRef(name, self.var_widths[name])
        raise CompileError(
            "variable %r only defined on one branch; give it a value "
            "before the if" % name, node)

    def _walk_stateful_if(self, cond, stmt):
        then_entry = self.fsm.new_state("then")
        else_entry = self.fsm.new_state("else") if stmt.orelse else None
        join = self.fsm.new_state("join")
        self._close(Branch(cond, then_entry,
                           else_entry if else_entry is not None else join))

        self._open(then_entry)
        if not self._walk_body(stmt.body):
            self._close(Goto(join))

        if else_entry is not None:
            self._open(else_entry)
            if not self._walk_body(stmt.orelse):
                self._close(Goto(join))

        self._open(join)
        return False

    def _walk_while(self, stmt):
        if stmt.orelse:
            raise CompileError("while/else unsupported", stmt)
        if not body_contains_barrier(stmt.body) and \
                not _is_const_true(stmt.test):
            raise ScheduleError(
                "pause-free while loop cannot be scheduled; add pause() "
                "or use a bounded for-range loop", stmt)
        header = self.fsm.new_state("while")
        exit_state = self.fsm.new_state("endwhile")
        self._close(Goto(header))

        self._open(header)
        cond = as_bool(self._eval(stmt.test))
        body_entry = self.fsm.new_state("loopbody")
        self._close(Branch(cond, body_entry, exit_state))

        self._loops.append(LoopContext(header, exit_state))
        self._open(body_entry)
        if not self._walk_body(stmt.body):
            self._close(Goto(header))
        self._loops.pop()

        self._open(exit_state)
        return False

    def _walk_for(self, stmt):
        """Static unroll of ``for i in range(...)`` (hardware idiom)."""
        if stmt.orelse:
            raise CompileError("for/else unsupported", stmt)
        if not isinstance(stmt.target, ast.Name):
            raise CompileError("for target must be a name", stmt)
        call = stmt.iter
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "range"):
            raise CompileError("for loops must iterate over range()", stmt)
        bounds = []
        for arg in call.args:
            if not (isinstance(arg, ast.Constant)
                    and isinstance(arg.value, int)):
                raise CompileError(
                    "range() bounds must be integer literals "
                    "(loops are statically unrolled)", stmt)
            bounds.append(arg.value)
        iterations = range(*bounds)
        if len(iterations) > 4096:
            raise ScheduleError("unrolling %d iterations is unreasonable"
                                % len(iterations), stmt)
        name = stmt.target.id
        saved = self.const_env.get(name)
        for value in iterations:
            self.const_env[name] = Const(value, DEFAULT_WIDTH)
            if self._walk_body(stmt.body):
                raise CompileError(
                    "return/break out of an unrolled for loop is "
                    "unsupported", stmt)
        if saved is None:
            self.const_env.pop(name, None)
        else:
            self.const_env[name] = saved
        return False

    def _walk_return(self, stmt):
        values = []
        if stmt.value is not None:
            if isinstance(stmt.value, ast.Tuple):
                values = [self._eval(e) for e in stmt.value.elts]
            else:
                values = [self._eval(stmt.value)]
        if len(values) != len(self.result_names):
            raise CompileError(
                "return arity %d does not match declared results (%d)"
                % (len(values), len(self.result_names)), stmt)
        if self._guard is not None:
            raise CompileError(
                "return inside a combinational branch; this should have "
                "been scheduled as a stateful if", stmt)
        for name, value in zip(self.result_names, values):
            self._assign(name, value, stmt)
        self._close(Goto(self.fsm.idle))

    # -- expression evaluation -----------------------------------------------

    def _eval(self, node):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return Const(int(node.value), 1)
            if isinstance(node.value, int):     # never negative: see USub
                return Const(node.value, max(1, node.value.bit_length()))
            raise CompileError("unsupported constant %r" % (node.value,),
                               node)
        if isinstance(node, ast.Name):
            return self._var_read(node.id, node)
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise CompileError("unsupported operator", node)
            lhs = self._eval(node.left)
            rhs = self._eval(node.right)
            # Python shifts and divides a negative value with its sign
            # and refuses a negative shift count; unsigned hardware does
            # neither.  ``-8 << a`` agrees: it sign-extends below.
            if (isinstance(rhs, _Negative) and op in ("<<", ">>", "/", "%")
                    or isinstance(lhs, _Negative) and op in (">>", "/", "%")):
                raise CompileError("negative literal as an operand of %s "
                                   "(kernel values are unsigned)"
                                   % ("//" if op == "/" else op), node)
            if op in ("<<", ">>"):
                if isinstance(rhs, Const):
                    rhs = Const(rhs.value, max(1, rhs.width))
                if op == "<<":
                    # C# semantics: operands promote to the word width
                    # before shifting, so shifted-out bits are not lost.
                    lhs = zext(lhs, max(lhs.width, DEFAULT_WIDTH))
                return BinOp(op, lhs, rhs)
            lhs, rhs = match_widths(lhs, rhs)
            return BinOp(op, lhs, rhs)
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise CompileError("chained comparison unsupported", node)
            op = _COMPARES.get(type(node.ops[0]))
            if op is None:
                raise CompileError("unsupported comparison", node)
            lhs = self._eval(node.left)
            rhs = self._eval(node.comparators[0])
            if isinstance(lhs, _Negative) or isinstance(rhs, _Negative):
                raise CompileError("comparison with a negative literal "
                                   "(kernel values are unsigned)", node)
            lhs, rhs = match_widths(lhs, rhs)
            return BinOp(op, lhs, rhs, result_width=1)
        if isinstance(node, ast.BoolOp):
            op = "&" if isinstance(node.op, ast.And) else "|"
            result = as_bool(self._eval(node.values[0]))
            for value in node.values[1:]:
                result = BinOp(op, result, as_bool(self._eval(value)))
            return result
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                return UnOp("!", as_bool(self._eval(node.operand)))
            if isinstance(node.op, ast.Invert):
                return UnOp("~", self._eval(node.operand))
            if isinstance(node.op, ast.USub):
                operand = self._eval(node.operand)
                if type(operand) is Const and operand.value:   # a literal
                    return _Negative(-operand.value,
                                     (operand.value - 1).bit_length() + 1)
                return BinOp("-", Const(0, operand.width), operand)
            raise CompileError("unsupported unary operator", node)
        if isinstance(node, ast.IfExp):
            cond = as_bool(self._eval(node.test))
            then_val, else_val = match_widths(
                self._eval(node.body), self._eval(node.orelse))
            return Mux(cond, then_val, else_val)
        if isinstance(node, ast.Subscript):
            if not isinstance(node.value, ast.Name) or \
                    node.value.id not in self.memories:
                raise CompileError("subscript base must be a memory", node)
            mem_name = node.value.id
            mem = self.memories[mem_name]
            addr = zext(self._eval(_subscript_index(node)), mem.addr_bits)
            result = MemReadRef(mem_name, addr, mem.width)
            # Store-forwarding: a read must observe writes issued earlier
            # in the same cycle (Python sequential semantics), even
            # though the memory itself commits at the clock edge.
            for wmem, waddr, wdata, wenable in self._current.writes:
                if wmem != mem_name:
                    continue
                hit = BinOp("&", as_bool(wenable),
                            BinOp("==", addr, waddr, result_width=1))
                result = Mux(hit, wdata, result)
            return result
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        raise CompileError(
            "unsupported expression %s" % type(node).__name__, node)

    def _eval_call(self, node):
        if not isinstance(node.func, ast.Name):
            raise CompileError("only direct calls supported", node)
        name = node.func.id
        if name == "bits":
            if len(node.args) != 2 or not (
                    isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, int)):
                raise CompileError("bits(expr, width) needs a literal "
                                   "width", node)
            return zext(self._eval(node.args[0]), node.args[1].value)
        raise CompileError("unknown function %r (kernels are flat; only "
                           "pause() and bits() are intrinsic)" % name, node)


class VarRef(Expr):
    """A read of a variable's register (resolved to a Signal in codegen)."""

    __slots__ = ("name", "width")

    def __init__(self, name, width):
        self.name = name
        self.width = width

    def children(self):
        return ()

    def _key(self):
        return ("var", self.name, self.width)

    def _text(self):
        return "var:%s<%d>" % (self.name, self.width)


class MemReadRef(Expr):
    """A read of a memory (resolved to a MemRead in codegen)."""

    __slots__ = ("mem_name", "addr", "width")

    def __init__(self, mem_name, addr, width):
        self.mem_name = mem_name
        self.addr = addr
        self.width = width

    def children(self):
        return (self.addr,)

    def _key(self):
        return ("memref", self.mem_name, self.width, self.addr.key())

    def _clone_with(self, children):
        return MemReadRef(self.mem_name, children[0], self.width)

    def _text(self, addr):
        return "mem:%s[%s]" % (self.mem_name, addr)


def _subscript_index(node):
    index = node.slice
    if isinstance(index, ast.Index):       # pragma: no cover (py<3.9)
        index = index.value
    if isinstance(index, ast.Slice):
        raise CompileError("memory slices unsupported; index one word",
                           node)
    return index


def _is_const_true(node):
    return isinstance(node, ast.Constant) and node.value is True
