"""Combinational expression IR.

Expressions are immutable trees over signals and constants.  Widths are
explicit everywhere (hardware has no implicit promotion); arithmetic
results keep the operand width and wrap, exactly like a Verilog wire of
that width.  Comparison and reduction operators are 1-bit.
"""

from repro.errors import WidthError


def _mask(width):
    return (1 << width) - 1


class Key:
    """A structural-identity token returned by :meth:`Expr.key`.

    Expressions are DAGs with heavy sharing; a naive nested-tuple key
    would hash in time proportional to the *expanded tree* (exponential
    in the DAG depth) because tuples re-hash their elements every time.
    ``Key`` caches its hash at construction — children are ``Key``
    objects whose hashes are already cached, so hashing is O(arity) —
    and equality short-circuits on identity, so comparing keys built
    over shared subtrees never re-walks them.
    """

    __slots__ = ("parts", "_hash")

    def __init__(self, parts):
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Key) and self._hash == other._hash
                and self.parts == other.parts)

    def __repr__(self):
        """One level: a child key shows as its hash, not as its tree."""
        return "Key(%s)" % ", ".join(
            "#%08x" % (p._hash & 0xFFFFFFFF) if isinstance(p, Key)
            else repr(p) for p in self.parts)


class Expr:
    """Base class for all combinational expressions."""

    width = None  # set by subclasses

    def __repr__(self):
        """The emitter's text: ``_xN = ...`` lines, then the root."""
        from repro.rtl.verilog import _emit, _shared_wires  # import cycle
        names, defs = _shared_wires([self])
        return "\n".join(["%s = %s" % (name, _emit(node, names, True))
                          for name, _, node in defs] + [_emit(self, names)])

    # -- operator sugar --------------------------------------------------

    def _bin(self, op, other, result_width=None):
        other = to_expr(other, self.width)
        return BinOp(op, self, other, result_width)

    def __add__(self, other):
        return self._bin("+", other)

    def __sub__(self, other):
        return self._bin("-", other)

    def __mul__(self, other):
        return self._bin("*", other)

    def __and__(self, other):
        return self._bin("&", other)

    def __or__(self, other):
        return self._bin("|", other)

    def __xor__(self, other):
        return self._bin("^", other)

    def __lshift__(self, other):
        return self._bin("<<", other)

    def __invert__(self):
        return UnOp("~", self)

    def eq(self, other):
        return self._bin("==", other, result_width=1)

    def ne(self, other):
        return self._bin("!=", other, result_width=1)

    def lt(self, other):
        return self._bin("<", other, result_width=1)

    def ge(self, other):
        return self._bin(">=", other, result_width=1)

    def __getitem__(self, key):
        if isinstance(key, int):
            return Slice(self, key, key)
        if isinstance(key, slice):
            if key.start is None or key.stop is None or key.step is not None:
                raise WidthError("expression slice must be expr[msb:lsb]")
            return Slice(self, key.start, key.stop)
        raise TypeError("index must be int or slice")

    # -- structural identity ----------------------------------------------

    def key(self):
        """A hashable structural key: two expressions have equal keys iff
        they compute the same function of the same leaves at the same
        width.  Widths are part of the key (an 8-bit and a 16-bit add of
        the same operands are different hardware).  The optimizer's CSE
        pass uses keys to share structurally-equal subtrees.
        """
        cached = getattr(self, "_key_cache", None)
        if cached is None:
            cached = Key(self._key())
            self._key_cache = cached
        return cached

    def _key(self):
        raise NotImplementedError("no structural key for %r" % (self,))

    # -- traversal --------------------------------------------------------

    def children(self):
        return ()

    def signals(self):
        """Yield every Signal referenced in this DAG (each node once)."""
        from repro.rtl.signal import Signal
        seen = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, Signal):
                yield node
            stack.extend(node.children())


class Const(Expr):
    """A literal with an explicit width."""

    __slots__ = ("value", "width")

    def __init__(self, value, width):
        if width <= 0:
            raise WidthError("constant width must be positive")
        self.width = width
        self.value = value & _mask(width)

    def _key(self):
        return ("const", self.width, self.value)


class BinOp(Expr):
    """Binary operator; comparisons produce 1-bit results."""

    __slots__ = ("op", "lhs", "rhs", "width")

    _COMPARES = {"==", "!=", "<", "<=", ">", ">="}
    _SHIFTS = {"<<", ">>"}

    def __init__(self, op, lhs, rhs, result_width=None):
        if op not in self._COMPARES and op not in self._SHIFTS and \
                op not in {"+", "-", "*", "&", "|", "^", "/", "%"}:
            raise WidthError("unknown operator %r" % op)
        if op not in self._SHIFTS and lhs.width != rhs.width:
            raise WidthError(
                "operator %s width mismatch: %d vs %d"
                % (op, lhs.width, rhs.width)
            )
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        if result_width is not None:
            self.width = result_width
        elif op in self._COMPARES:
            self.width = 1
        else:
            self.width = lhs.width

    def children(self):
        return (self.lhs, self.rhs)

    def _key(self):
        return ("bin", self.op, self.width, self.lhs.key(), self.rhs.key())


class UnOp(Expr):
    """Unary operator: bitwise not, reductions."""

    __slots__ = ("op", "operand", "width")

    def __init__(self, op, operand):
        if op not in {"~", "|r", "&r", "^r", "!"}:
            raise WidthError("unknown unary operator %r" % op)
        self.op = op
        self.operand = operand
        self.width = operand.width if op == "~" else 1

    def children(self):
        return (self.operand,)

    def _key(self):
        return ("un", self.op, self.width, self.operand.key())


class Mux(Expr):
    """2:1 multiplexer: ``sel ? if_true : if_false``."""

    __slots__ = ("sel", "if_true", "if_false", "width")

    def __init__(self, sel, if_true, if_false):
        if if_true.width != if_false.width:
            raise WidthError(
                "mux arm width mismatch: %d vs %d"
                % (if_true.width, if_false.width)
            )
        self.sel = sel
        self.if_true = if_true
        self.if_false = if_false
        self.width = if_true.width

    def children(self):
        return (self.sel, self.if_true, self.if_false)

    def _key(self):
        return ("mux", self.width, self.sel.key(), self.if_true.key(),
                self.if_false.key())


class Slice(Expr):
    """Bit extraction ``expr[msb:lsb]`` (inclusive, Verilog style)."""

    __slots__ = ("operand", "msb", "lsb", "width")

    def __init__(self, operand, msb, lsb):
        if not 0 <= lsb <= msb < operand.width:
            raise WidthError(
                "slice [%d:%d] out of %d-bit value"
                % (msb, lsb, operand.width)
            )
        self.operand = operand
        self.msb = msb
        self.lsb = lsb
        self.width = msb - lsb + 1

    def children(self):
        return (self.operand,)

    def _key(self):
        return ("slice", self.msb, self.lsb, self.operand.key())


class Concat(Expr):
    """Bit concatenation ``{a, b, ...}``; first part is most significant."""

    __slots__ = ("parts", "width")

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise WidthError("cannot concatenate zero parts")
        self.parts = parts
        self.width = sum(p.width for p in parts)

    def children(self):
        return self.parts

    def _key(self):
        return ("cat",) + tuple(p.key() for p in self.parts)


class MemRead(Expr):
    """Asynchronous (combinational) memory read port."""

    __slots__ = ("memory", "addr", "width")

    def __init__(self, memory, addr):
        self.memory = memory
        self.addr = addr
        self.width = memory.width

    def children(self):
        return (self.addr,)

    def _key(self):
        # Memories are unique objects (never structurally merged), so
        # identity is the right notion of "same memory".
        return ("memread", self.memory, self.addr.key())


# -- convenience constructors ---------------------------------------------

def to_expr(value, width=None):
    """Coerce ints (given a width hint) into :class:`Const`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return Const(int(value), 1)
    if isinstance(value, int):
        if width is None:
            raise WidthError("cannot infer width for bare int %d" % value)
        return Const(value, width)
    raise WidthError("cannot convert %r to an expression" % (value,))


def const(value, width):
    return Const(value, width)


def mux(sel, if_true, if_false):
    sel = to_expr(sel, 1)
    if isinstance(if_true, int) and isinstance(if_false, Expr):
        if_true = to_expr(if_true, if_false.width)
    if isinstance(if_false, int) and isinstance(if_true, Expr):
        if_false = to_expr(if_false, if_true.width)
    return Mux(sel, if_true, if_false)


def cat(*parts):
    return Concat(parts)


def reduce_or(expr):
    return UnOp("|r", expr)


def reduce_and(expr):
    return UnOp("&r", expr)


def eval_binop(op, lhs, rhs, width):
    """Value of ``lhs op rhs`` at *width* — THE operator semantics.

    Both the cycle simulator and the optimizer's constant folder call
    this, so a folded constant is the value the simulator would have
    computed, by construction (including division by zero yielding 0
    and results wrapping at *width*).
    """
    if op == "+":
        return (lhs + rhs) & _mask(width)
    if op == "-":
        return (lhs - rhs) & _mask(width)
    if op == "*":
        return (lhs * rhs) & _mask(width)
    if op == "&":
        return lhs & rhs
    if op == "|":
        return lhs | rhs
    if op == "^":
        return lhs ^ rhs
    if op == "<<":
        return (lhs << rhs) & _mask(width)
    if op == ">>":
        return lhs >> rhs
    if op == "/":
        return (lhs // rhs) & _mask(width) if rhs else 0
    if op == "%":
        return (lhs % rhs) & _mask(width) if rhs else 0
    if op == "==":
        return int(lhs == rhs)
    if op == "!=":
        return int(lhs != rhs)
    if op == "<":
        return int(lhs < rhs)
    if op == "<=":
        return int(lhs <= rhs)
    if op == ">":
        return int(lhs > rhs)
    if op == ">=":
        return int(lhs >= rhs)
    raise WidthError("unknown operator %r" % op)


def eval_unop(op, value, operand_width, width):
    """Value of the unary ``op`` — shared like :func:`eval_binop`."""
    if op == "~":
        return ~value & _mask(width)
    if op == "|r":
        return int(value != 0)
    if op == "&r":
        return int(value == _mask(operand_width))
    if op == "^r":
        return bin(value).count("1") & 1
    if op == "!":
        return int(value == 0)
    raise WidthError("unknown unary operator %r" % op)


def clone_with_children(expr, children):
    """Copy *expr* with new children, preserving widths exactly."""
    from repro.rtl.signal import Signal
    if isinstance(expr, (Const, Signal)):
        return expr
    if isinstance(expr, BinOp):
        node = BinOp.__new__(BinOp)
        node.op = expr.op
        node.lhs, node.rhs = children
        node.width = expr.width
        return node
    if isinstance(expr, UnOp):
        return UnOp(expr.op, children[0])
    if isinstance(expr, Mux):
        return Mux(*children)
    if isinstance(expr, Slice):
        return Slice(children[0], expr.msb, expr.lsb)
    if isinstance(expr, Concat):
        return Concat(children)
    if isinstance(expr, MemRead):
        return MemRead(expr.memory, children[0])
    clone = getattr(expr, "_clone_with", None)   # builder-level nodes
    if clone is not None:
        return clone(children)
    raise WidthError("cannot clone expression %r" % (expr,))


def expr_depth(expr, memo=None):
    """Logic levels of an expression DAG (the timing proxy used by the
    :class:`~repro.kiwi.compiler.TimingReport` and by the optimizer's
    state-fusion budget).  Operators and muxes cost one level each."""
    if isinstance(expr, str):       # "__start__" placeholder
        return 0
    if memo is None:
        memo = {}
    cached = memo.get(id(expr))
    if cached is not None:
        return cached
    cost = 1 if isinstance(expr, (BinOp, Mux, UnOp)) else 0
    depth = cost + max((expr_depth(c, memo) for c in expr.children()),
                       default=0)
    memo[id(expr)] = depth
    return depth


def eq_any(expr, values):
    """1-bit expression: does *expr* equal any of the constant *values*?"""
    result = None
    for value in values:
        term = expr.eq(Const(value, expr.width))
        result = term if result is None else BinOp("|", result, term)
    if result is None:
        return Const(0, 1)
    return result
