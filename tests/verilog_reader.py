"""Read ``emit_verilog``'s text back into an ``rtl.Module``.

The reader accepts exactly the subset the emitter writes — the module
header, ``input``/``output wire``/``wire``/``reg`` declarations,
memories, ``assign``, one ``initial begin ... end`` block of constant
``reg = K;`` and ``mem[N] = K;`` assigns, and one ``always @(posedge
clk)`` block of non-blocking assigns and ``if (en) mem[addr] <= data;``
— and rejects anything else, part-selects of expressions or constants
included.

It applies Verilog-2001's width rules (IEEE 1364-2001 §4.4), not the
IR's: every value is unsigned; operands of ``+ - * / % & | ^ ~``,
``?:`` arms and a shift's left side are context-determined (as wide as
the widest operand and the assignment target); comparison operands are
sized to each other, with a 1-bit result; concatenation parts,
reduction and ``!`` operands, shift amounts, conditions and indices
are self-determined.  The rebuilt module states every width, so an
emitter that relies on a width the text does not state reads back as
a different circuit.

It runs on ``rtl.Simulator`` and inherits its gaps: a memory read out
of range and ``/``/``%`` by zero give 0, where Verilog gives x.
``Verilog(level)`` is the ``repro.verify`` leg that runs it.
"""

import re

from repro.rtl import (
    BinOp, Concat, Const, MemRead, Memory, Module, Mux, Simulator, Slice,
    UnOp,
)
from repro.verify import Interpreter

_TOKEN = re.compile(r"\d+'d\d+|\w+|<<|>>|[=!<>]=|\S")
_NAME = re.compile(r"[A-Za-z_]\w*")
_DIGITS = re.compile(r"\d+")
_SIZED = re.compile(r"(\d+)'d(\d+)")
_COMPARE = {"==", "!=", "<", "<=", ">", ">="}
_SHIFT = {"<<", ">>"}
_BINARY = {"+", "-", "*", "/", "%", "&", "|", "^"} | _COMPARE | _SHIFT
_UNARY = {"~": "~", "|": "|r", "&": "&r", "^": "^r", "!": "!"}


class VerilogError(ValueError):
    """The text is outside the subset ``emit_verilog`` writes."""


def read_verilog(text):
    """The ``rtl.Module`` that *text* describes under Verilog-2001."""
    return _Reader(text).module


def _zext(expr, width):
    if expr.width == width:
        return expr
    return Concat([Const(0, width - expr.width), expr])


def _build(node, width):
    """IR for the parsed *node* in a context *width* bits wide (never
    narrower than the node itself).  A node is ``(kind, own width,
    ...)``."""
    kind = node[0]
    if kind == "const":
        return Const(node[2], width)
    if kind == "bin":
        op, lhs, rhs = node[2:]
        if op in _COMPARE:
            inner = max(lhs[1], rhs[1])
            return _zext(BinOp(op, _build(lhs, inner), _build(rhs, inner),
                               result_width=1), width)
        if op in _SHIFT:
            return BinOp(op, _build(lhs, width), _build(rhs, rhs[1]))
        return BinOp(op, _build(lhs, width), _build(rhs, width))
    if kind == "un" and node[2] == "~":
        return UnOp("~", _build(node[3], width))
    if kind == "mux":
        sel, yes, no = node[2:]
        return Mux(_build(sel, sel[1]), _build(yes, width),
                   _build(no, width))
    # Self-determined from here on: built at their own width, then
    # zero-extended into the context.
    if kind == "sig":
        value = node[2]
    elif kind == "mem":
        value = MemRead(node[2], _build(node[3], node[3][1]))
    elif kind == "select":
        base, msb, lsb = node[2:]
        value = Slice(_build(base, base[1]), msb, lsb)
    elif kind == "cat":
        value = Concat([_build(part, part[1]) for part in node[2]])
    else:                                   # reductions and !
        value = UnOp(node[2], _build(node[3], node[3][1]))
    return _zext(value, width)


def _fit(node, width):
    """IR for ``target = node`` with a *width*-bit target: the context
    is the wider of the two, and the value is truncated to the
    target."""
    context = max(width, node[1])
    value = _build(node, context)
    return Slice(value, width - 1, 0) if context > width else value


class _Reader:
    def __init__(self, text):
        self.tokens = _TOKEN.findall(re.sub(r"//[^\n]*", "", text))
        self.pos = 0
        self.names = {}             # Verilog name -> Signal or Memory
        self.module = self.read_module()

    # -- tokens ----------------------------------------------------------

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, *expected):
        token = self.peek()
        if token is None or (expected and token not in expected):
            raise VerilogError("token %d: expected %s, got %r" % (
                self.pos, " or ".join(expected) or "more text", token))
        self.pos += 1
        return token

    def expect(self, *tokens):
        for token in tokens:
            self.take(token)

    def accept(self, token):
        found = self.peek() == token
        self.pos += found
        return found

    def word(self, pattern=_NAME):
        token = self.take()
        if not pattern.fullmatch(token):
            raise VerilogError("token %d: unexpected %r" % (self.pos - 1,
                                                            token))
        return token

    def number(self):
        return int(self.word(_DIGITS))

    def listed(self, item, close):
        """``item, item, ... close``."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        self.take(close)
        return items

    def declared(self, kind):
        name = self.word()
        found = self.names.get(name)
        if kind == "memory" and not isinstance(found, Memory) or \
                kind != "memory" and getattr(found, "kind", None) != kind:
            raise VerilogError("%r is not a declared %s" % (name, kind))
        return found

    # -- module structure ---------------------------------------------------

    def read_module(self):
        self.take("module")
        module = Module(self.word())
        self.take("(")
        ports = self.listed(self.word, ")")
        self.expect(";", "input", "clk", ";")
        keywords = ["input", "output", "wire", "reg", "assign", "always",
                    "initial"]
        while not self.accept("endmodule"):
            keyword = self.take(*keywords)
            if keyword == "assign":
                target = self.declared("wire")
                self.take("=")
                module.comb(target, _fit(self.expr(), target.width))
                self.take(";")
            elif keyword in ("always", "initial"):
                keywords.remove(keyword)            # one block of each
                getattr(self, "read_" + keyword)(module)
            else:
                self.declare(module, keyword)
        declared = ["clk"] + [sig.name for sig in module.inputs +
                              module.outputs]
        if self.peek() is not None or sorted(ports) != sorted(declared):
            raise VerilogError("ports %r, declared %r, then %r"
                               % (ports, declared, self.peek()))
        return module

    def declare(self, module, keyword):
        if keyword == "output":
            self.take("wire")
        width = 1
        if self.accept("["):                        # [msb:0]
            width = self.number() + 1
            self.expect(":", "0", "]")
        name = self.word()
        if name in self.names:
            raise VerilogError("%r declared twice" % name)
        if keyword == "reg" and self.accept("["):   # name [0:depth-1]
            self.expect("0", ":")
            depth = self.number() + 1
            self.take("]")
            # Module.memory names it "<module>.<key>", which the emitter
            # writes as "<module>__<key>": the name round-trips.
            prefix = module.name + "__"
            key = name[len(prefix):] if name.startswith(prefix) else name
            item = module.memory(key, width, depth)
        else:
            item = getattr(module, keyword)(name, width)
        self.take(";")
        self.names[name] = item

    def read_initial(self, module):
        self.take("begin")
        while not self.accept("end"):
            if isinstance(self.names.get(self.peek()), Memory):
                memory = self.declared("memory")
                self.take("[")
                addr = self.number()
                self.expect("]", "=")
                if addr >= memory.depth:
                    raise VerilogError("%s[%d] is out of range"
                                       % (memory.name, addr))
                memory.init[addr] = self.constant(memory.width)
            else:
                reg = self.declared("reg")
                self.take("=")
                reg.init = self.constant(reg.width)
            self.take(";")

    def constant(self, width):
        node = self.expr()
        if node[0] != "const":
            raise VerilogError("an initial value must be a constant")
        return node[2] & ((1 << width) - 1)

    def read_always(self, module):
        self.expect("@", "(", "posedge", "clk", ")", "begin")
        while not self.accept("end"):
            if not self.accept("if"):
                target = self.declared("reg")
                self.take("<=")
                module.sync(target, _fit(self.expr(), target.width))
                self.take(";")
                continue
            self.take("(")
            enable = self.expr()
            self.take(")")
            memory = self.declared("memory")
            self.take("[")
            addr = self.expr()
            self.expect("]", "<=")
            data = _fit(self.expr(), memory.width)
            self.take(";")
            enable = _build(enable, enable[1])
            module.write_port(memory, _build(addr, addr[1]), data,
                              enable if enable.width == 1
                              else UnOp("|r", enable))

    # -- expressions: the emitter parenthesises every operator ---------------

    def expr(self):
        token = self.take()
        if token == "(":
            if self.peek() in _UNARY:
                op = _UNARY[self.take()]
                operand = self.expr()
                node = ("un", operand[1] if op == "~" else 1, op, operand)
            else:
                first = self.expr()
                op = self.take("?", *_BINARY)
                second = self.expr()
                if op == "?":
                    self.take(":")
                    no = self.expr()
                    node = ("mux", max(second[1], no[1]), first, second, no)
                else:
                    width = (1 if op in _COMPARE else first[1]
                             if op in _SHIFT else max(first[1], second[1]))
                    node = ("bin", width, op, first, second)
            self.take(")")
            return node
        if token == "{":
            parts = self.listed(self.expr, "}")
            return ("cat", sum(part[1] for part in parts), parts)
        sized = _SIZED.fullmatch(token)
        if sized:
            width, value = int(sized.group(1)), int(sized.group(2))
            if not 0 < width or value >> width:
                raise VerilogError("%s does not fit its width" % token)
            return ("const", width, value)
        item = self.names.get(token)
        if isinstance(item, Memory):
            self.take("[")
            node = ("mem", item.width, item, self.expr())
            self.take("]")
        elif item is not None:
            node = ("sig", item.width, item)
        else:
            raise VerilogError("token %d: %r is not a declared name"
                               % (self.pos - 1, token))
        if self.accept("["):                        # a part-select
            msb = lsb = self.number()
            if self.accept(":"):
                lsb = self.number()
            self.take("]")
            node = ("select", msb - lsb + 1, node, msb, lsb)
        return node


class Verilog(Interpreter):
    """The design's Verilog text, read back and simulated.  Same
    calling convention and timing key as :class:`Interpreter`, so a
    check compares results, memory images and cycle counts."""

    kind = "verilog"

    def ready(self, subject, compile_at):
        super().ready(subject, compile_at)
        self.read = read_verilog(self.design.verilog())

    def power_on(self):
        self.sim = Simulator(self.read)
