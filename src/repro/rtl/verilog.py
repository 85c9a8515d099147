"""Structural Verilog emission (workflow step B1 of Fig. 1).

The paper's pipeline ends in Verilog consumed by Xilinx Vivado.  We emit
equivalent structural Verilog-2001 from the netlist IR so the workflow is
complete end-to-end.  The text is linear in the netlist, every
part-select applies to a name, and an ``initial`` block carries the
power-on state; ``tests/verilog_reader.py`` reads it back under
Verilog-2001's width rules, and its ``Verilog`` leg of
:mod:`repro.verify` runs it against the interpreted netlist.  ``repr``
of an expression is this printer too.
"""

from repro.rtl.expr import BinOp, Concat, Const, MemRead, Mux, Slice, UnOp
from repro.rtl.module import flatten
from repro.rtl.signal import Signal

_UNARY = {"~": "~", "|r": "|", "&r": "&", "^r": "^", "!": "!"}


def _vname(name):
    return name.replace(".", "__")


def _emit(expr, names, define=False):
    """Render *expr*: a hoisted node is its wire name, except in its
    own definition (*define*)."""
    name = names.get(id(expr))
    if name is not None and not define:
        return name
    if isinstance(expr, Const):
        return "%d'd%d" % (expr.width, expr.value)
    if isinstance(expr, Signal):
        return _vname(expr.name)
    if isinstance(expr, BinOp):
        return "(%s %s %s)" % (_emit(expr.lhs, names), expr.op,
                               _emit(expr.rhs, names))
    if isinstance(expr, UnOp):
        return "(%s%s)" % (_UNARY[expr.op], _emit(expr.operand, names))
    if isinstance(expr, Mux):
        return "(%s ? %s : %s)" % (
            _emit(expr.sel, names), _emit(expr.if_true, names),
            _emit(expr.if_false, names))
    if isinstance(expr, Slice):
        if isinstance(expr.operand, Const):
            return "%d'd%d" % (expr.width, (expr.operand.value >> expr.lsb)
                               & ((1 << expr.width) - 1))
        select = ("[%d]" % expr.lsb if expr.msb == expr.lsb
                  else "[%d:%d]" % (expr.msb, expr.lsb))
        return _emit(expr.operand, names) + select
    if isinstance(expr, Concat):
        return "{%s}" % ", ".join(_emit(p, names) for p in expr.parts)
    if isinstance(expr, MemRead):
        return "%s[%s]" % (_vname(expr.memory.name),
                           _emit(expr.addr, names))
    # A builder-level node (``VarRef``, ``MemReadRef``) renders itself.
    return expr._text(*[_emit(child, names) for child in expr.children()])


def _expr_roots(module):
    """Every expression the module emits, in a stable order."""
    roots = list(module.comb_assigns.values())
    roots += list(module.sync_assigns.values())
    for mw in module.mem_writes:
        roots += [mw.enable, mw.addr, mw.data]
    return roots


def _shared_wires(roots):
    """(names, defs): a wire name per node under *roots* that needs one.

    Expressions are DAGs (the optimizer's CSE pass makes the sharing
    heavy); inlining a shared node at every reference expands the DAG
    into its tree form, which is exponential in the worst case.  Nodes
    with more than one incoming reference are hoisted into named wires
    instead, so the emitted text is linear in the netlist size — this is
    CSE made visible: one shared wire per common subexpression.  The
    operand of a slice counts twice unless it is a memory word, so every
    part-select applies to a name, as Verilog-2001 requires.  Signals
    and constants are names already and never become wires.

    *defs* is ``[(name, width, node)]`` in children-first order.
    """
    counts = {}
    order = []          # post-order, children before parents

    def walk(node, weight):
        key = id(node)
        if key in counts:
            counts[key] += weight
            return
        counts[key] = weight
        sliced = isinstance(node, Slice)
        for child in node.children():
            walk(child, 1 + (sliced and not isinstance(child, MemRead)))
        order.append(node)

    for root in roots:
        walk(root, 1)

    names = {}
    defs = []
    for node in order:
        if counts[id(node)] < 2 or isinstance(node, (Const, Signal)):
            continue
        name = "_x%d" % len(defs)
        names[id(node)] = name
        defs.append((name, node.width, node))
    return names, defs


def _range(width):
    return "" if width == 1 else "[%d:0] " % (width - 1)


def _initial(flat):
    """One ``initial`` block for the power-on state that is not zero:
    each reg with a non-zero ``init``, and every word of a memory that
    has a non-zero word."""
    lines = ["    %s = %d'd%d;" % (_vname(sig.name), sig.width, sig.init)
             for sig in flat.signals.values()
             if sig.kind == "reg" and sig.init]
    for mem in filter(lambda mem: any(mem.init), flat.memories.values()):
        lines += ["    %s[%d] = %d'd%d;" % (_vname(mem.name), addr,
                                             mem.width, word)
                  for addr, word in enumerate(mem.init)]
    return ["", "  initial begin"] + lines + ["  end"] if lines else []


def emit_verilog(module):
    """Render *module* (flattened) as a structural Verilog string.

    Every multiply-referenced subexpression, and every sliced one, is
    emitted once as a named wire (``_xN``) instead of being inlined at
    each reference, so the text is linear in the netlist at every
    optimization level.
    """
    flat = flatten(module) if module.instances else module
    names, shared_defs = _shared_wires(_expr_roots(flat))
    ports = ["clk"] + [_vname(s.name) for s in flat.inputs + flat.outputs]
    lines = ["module %s (" % _vname(flat.name), "  " + ",\n  ".join(ports),
             ");", "  input clk;"]

    output_names = {s.name for s in flat.outputs}
    for sig in flat.inputs:
        lines.append("  input %s%s;" % (_range(sig.width), _vname(sig.name)))
    for sig in flat.signals.values():
        if sig.kind == "input":
            continue
        direction = "output " if sig.name in output_names else ""
        storage = "reg" if sig.kind == "reg" else "wire"
        lines.append("  %s%s %s%s;" % (
            direction, storage, _range(sig.width), _vname(sig.name)))

    for mem in flat.memories.values():
        addr_bits = max(1, (mem.depth - 1).bit_length())
        lines.append("  reg %s%s [0:%d]; // %d-bit addr" % (
            _range(mem.width), _vname(mem.name), mem.depth - 1, addr_bits))
    lines += _initial(flat)

    if shared_defs:
        lines += ["", "  // shared and sliced subexpressions"]
        for name, width, node in shared_defs:
            lines.append("  wire %s%s;" % (_range(width), name))
            lines.append("  assign %s = %s;" % (
                name, _emit(node, names, define=True)))

    lines.append("")
    for target, expr in flat.comb_assigns.items():
        lines.append("  assign %s = %s;" % (
            _vname(target.name), _emit(expr, names)))

    if flat.sync_assigns or flat.mem_writes:
        lines += ["", "  always @(posedge clk) begin"]
        for target, expr in flat.sync_assigns.items():
            lines.append("    %s <= %s;" % (
                _vname(target.name), _emit(expr, names)))
        for mw in flat.mem_writes:
            lines.append("    if (%s) %s[%s] <= %s;" % (
                _emit(mw.enable, names), _vname(mw.memory.name),
                _emit(mw.addr, names), _emit(mw.data, names)))
        lines.append("  end")

    lines.append("endmodule")
    return "\n".join(lines) + "\n"
